"""Seeded input generation for the benchmark workloads, cached per seed.

The generators here are the benchmark's own: they use ``random.Random`` and
write canonical corpus JSON directly, so the inputs do not change when the
program's synthetic-data helpers change. The program only ever sees the
files written here.
"""
import json
import random
import shutil
import time
from pathlib import Path

import oracles

# Corpus sizes are fixed so every seed does the same amount of work; the seed
# only changes content.
SIZES = {"thinker": 3000, "talker": 1200, "eval": 600}  # dialogues, or pairs for eval
PROBE_DIALOGUES = 32

FRAME_RATE_HZ = 12.5
TOKENS_PER_CHAR = 2
SPEECH_ID_BITS = 12

# Generator version: bump when the generated bytes change, so stale caches
# are not reused.
GEN_VERSION = 2

_EN = ("sure", "about", "that", "plan", "today", "really", "maybe", "later",
       "sounds", "good", "okay", "weather", "coffee", "meeting", "friend",
       "movie", "dinner", "station", "window", "garden", "yesterday", "music")
_ZH = ("早上", "好的", "没问题", "明天", "一起", "吃饭", "电影", "天气", "朋友", "开会")
_PUNCT = (",", ".", "?", "!", "，", "。")

# Flag mix of the thinker corpus: passthrough (no flag), clean, and the two
# contradiction kinds. missing_context lives only in the probe corpus.
_THINKER_FLAGS = (None, None, "clean", "logic_contradiction_correctable",
                  "logic_contradiction_severe")


def _dumps(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def _words(rng: random.Random, n: int) -> str:
    pool = _EN if rng.random() < 0.7 else _ZH
    return " ".join(rng.choice(pool if rng.random() < 0.8 else _EN + _ZH) for _ in range(n))


def _turn(rng: random.Random, role: str, speaker: str, text: str, n_segments: int) -> dict:
    """A turn in canonical key order with a contiguous aligned partition."""
    doc = {"role": role, "speaker_id": speaker, "text": text}
    n_tokens = TOKENS_PER_CHAR * len(text)
    doc["audio"] = {"token_ids": [rng.getrandbits(SPEECH_ID_BITS) for _ in range(n_tokens)],
                    "frame_rate_hz": FRAME_RATE_HZ,
                    "duration_s": n_tokens / FRAME_RATE_HZ}
    doc["alignment"] = [
        {"text_range": [len(text) * k // n_segments, len(text) * (k + 1) // n_segments],
         "audio_range": [n_tokens * k // n_segments, n_tokens * (k + 1) // n_segments],
         "index": k}
        for k in range(n_segments)]
    return doc


def _dialogue(did: str, language: str, flags: list, turns: list) -> dict:
    return {"id": did, "language": language, "source": "synthetic",
            "quality_flags": flags, "turns": turns}


def thinker_corpus(rng: random.Random, n: int) -> list[dict]:
    """Short 4-turn dialogues, 3 aligned segments per assistant turn, 16 voices."""
    out = []
    for i in range(n):
        user, assistant = f"u{rng.randrange(8)}", f"a{rng.randrange(8)}"
        turns = [_turn(rng, role, user if role == "user" else assistant,
                       _words(rng, 4 + rng.randrange(6)),
                       1 if role == "user" else 3)
                 for role in ("user", "assistant", "user", "assistant")]
        kind = _THINKER_FLAGS[i % len(_THINKER_FLAGS)]
        flags = []
        if kind == "clean":
            flags = [{"kind": "clean", "spans": []}]
        elif kind is not None:
            target = 1 if kind == "logic_contradiction_correctable" else 3
            length = len(turns[target]["text"])
            start = rng.randrange(length // 2)
            flags = [{"kind": kind, "spans": [[target, [start, start + 1 + rng.randrange(length // 2)]]]}]
        out.append(_dialogue(f"t{i:06d}", rng.choice(("en", "zh")), flags, turns))
    rng.shuffle(out)  # flag kinds interleave in a seed-dependent order
    return out


def probe_corpus(rng: random.Random, n: int) -> list[dict]:
    """Assistant-initial dialogues flagged missing_context.

    `clean` backfills each with a text-only user turn, which
    `build-thinker --p-user 0.5` cannot render as speech.
    """
    out = []
    for i in range(n):
        user, assistant = f"u{rng.randrange(8)}", f"a{rng.randrange(8)}"
        turns = [_turn(rng, role, user if role == "user" else assistant,
                       _words(rng, 4 + rng.randrange(6)), 1 if role == "user" else 3)
                 for role in ("assistant", "user", "assistant")]
        out.append(_dialogue(f"p{i:06d}", "en", [{"kind": "missing_context", "spans": []}],
                             turns))
    return out


def talker_corpus(rng: random.Random, n: int) -> list[dict]:
    """Longer turns and four voices, so each voice has over a thousand segments."""
    out = []
    for i in range(n):
        user, assistant = f"u{rng.randrange(2)}", f"a{rng.randrange(2)}"
        turns = [_turn(rng, role, user if role == "user" else assistant,
                       _words(rng, 12 + rng.randrange(12)), 1 if role == "user" else 3)
                 for role in ("user", "assistant", "user", "assistant")]
        out.append(_dialogue(f"k{i:06d}", rng.choice(("en", "zh")), [], turns))
    return out


def _sentence(rng: random.Random, length: int) -> str:
    parts = []
    size = 0
    while size < length:
        word = rng.choice(_EN + _ZH)
        if rng.random() < 0.15:
            word = word.capitalize()
        if rng.random() < 0.1:
            word += rng.choice(_PUNCT)
        parts.append(word)
        size += len(word) + 1
    return " ".join(parts)[:length].strip()


def _corrupt(rng: random.Random, text: str, rate: float = 0.1) -> str:
    """Apply ~rate character edits (substitute, delete, insert)."""
    alphabet = "abcdefghijklmnopqrstuvwxyz 好的天气"
    out = []
    for c in text:
        if rng.random() >= rate:
            out.append(c)
            continue
        op = rng.randrange(3)
        if op == 0:
            out.append(rng.choice(alphabet))
        elif op == 2:
            out.append(c)
            out.append(rng.choice(alphabet))
    return "".join(out)


def eval_pairs(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """Reference/hypothesis pairs of 60-200 characters.

    Lengths are an evenly spaced set shuffled by the seed, so the edit-distance
    work (quadratic in length) is the same for every seed.
    """
    lengths = [60 + (140 * k) // max(1, n - 1) for k in range(n)]
    rng.shuffle(lengths)
    pairs = []
    for length in lengths:
        ref = _sentence(rng, length)
        pairs.append((ref, _corrupt(rng, ref)))
    return pairs


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _generate(workload: str, seed: int, out: Path) -> None:
    rng = random.Random(f"forgebench/{workload}/{seed}")
    size = SIZES[workload]
    if workload == "thinker":
        _write_lines(out / "corpus.jsonl", map(_dumps, thinker_corpus(rng, size)))
        _write_lines(out / "probe.jsonl", map(_dumps, probe_corpus(rng, PROBE_DIALOGUES)))
    elif workload == "talker":
        _write_lines(out / "corpus.jsonl", map(_dumps, talker_corpus(rng, size)))
    else:
        pairs = eval_pairs(rng, size)
        _write_lines(out / "ref.txt", (r for r, _ in pairs))
        _write_lines(out / "hyp.txt", (h for _, h in pairs))
        # The oracle's reference values are computed here, once per seed.
        expected = oracles.expected_rates([r for r, _ in pairs], [h for _, h in pairs])
        (out / "expected.json").write_text(json.dumps(expected))


def prepare(workload: str, seed: int, cache_root: Path) -> tuple[Path, float | None]:
    """Return the input directory for (workload, seed), generating it if needed.

    The second value is the generation time in seconds, or None on a cache
    hit. A cache entry appears only once complete (written to a temporary
    directory, then renamed).
    """
    final = cache_root / f"v{GEN_VERSION}" / f"{workload}-{SIZES[workload]}" / f"seed-{seed}"
    if final.is_dir():
        return final, None
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    start = time.perf_counter()
    _generate(workload, seed, tmp)
    elapsed = time.perf_counter() - start
    tmp.rename(final)
    return final, elapsed
