"""Deterministic evaluation arithmetic.

Character/word error rates under minimal edit alignment, the strict only-yes
adherence score, cosine similarity, and inference-mode gap bookkeeping.

Corpus-level error rates pool edits over pooled reference length (not the
mean of per-utterance rates). ASR text normalization (lowercase, punctuation
strip, whitespace collapse) is applied before scoring unless raw mode is
requested; the choice is part of any run's config hash.

Note on gap bookkeeping: gaps are reported as plain componentwise a2a - a2t.
The reference consistency-difference figures bundled in the acceptance
fixtures come from a different, unknown procedure and deliberately do not
match this arithmetic; this module does not try to reverse-engineer them.
"""
import math
import unicodedata
from dataclasses import dataclass
from typing import Sequence

from seqforge import LANGUAGES
from seqforge.kernels import distance, edit_ops

CHAR_TOKENIZED_LANGUAGES = ("zh", "ja")


@dataclass(frozen=True)
class EditOps:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int

    @property
    def distance(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        return self.distance / max(1, self.reference_length)


def edit_distance(ref: Sequence, hyp: Sequence) -> EditOps:
    """Minimal-cost edit decomposition between two token sequences."""
    s, i, d = edit_ops(ref, hyp)
    return EditOps(substitutions=s, insertions=i, deletions=d, reference_length=len(ref))


class _PunctuationTable(dict):
    """A str.translate table that deletes every P* code point and keeps the rest.

    An entry is filled the first time its code point is seen. Each entry is a
    pure function of its code point and the table is bounded by the code-point
    space, so one table serves every call.
    """

    def __missing__(self, code_point: int) -> int | None:
        kept = None if unicodedata.category(chr(code_point)).startswith("P") else code_point
        self[code_point] = kept
        return kept


_DELETE_PUNCTUATION = _PunctuationTable()


def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(text.lower().translate(_DELETE_PUNCTUATION).split())


def _tokens(text: str, mode: str, lang: str, normalize: bool) -> Sequence[str]:
    """The symbols a cer/wer score aligns, after optional normalization.

    cer: every character. wer: the characters without whitespace for zh/ja,
    the whitespace-separated words otherwise.
    """
    if normalize:
        text = normalize_text(text)
    if mode == "cer":
        return text
    if lang in CHAR_TOKENIZED_LANGUAGES:
        return "".join(text.split())
    return text.split()


def _check_lang(lang: str) -> None:
    """Only the corpus languages: any other value (ZH, zh-CN) would silently
    score Chinese or Japanese as whitespace-separated words."""
    if lang not in LANGUAGES:
        raise ValueError(f"lang must be one of {', '.join(LANGUAGES)}; got {lang!r}")


def cer(ref: str, hyp: str, normalize: bool = True) -> EditOps:
    """Character error rate ops (Unicode scalar values after normalization)."""
    return edit_distance(_tokens(ref, "cer", "", normalize), _tokens(hyp, "cer", "", normalize))


def wer(ref: str, hyp: str, lang: str = "en", normalize: bool = True) -> EditOps:
    """Word error rate ops; zh/ja tokenize per character, others on whitespace."""
    _check_lang(lang)
    return edit_distance(_tokens(ref, "wer", lang, normalize),
                         _tokens(hyp, "wer", lang, normalize))


@dataclass(frozen=True)
class CorpusRate:
    utterances: int
    errors: int
    reference_length: int

    @property
    def rate(self) -> float:
        return self.errors / max(1, self.reference_length)


def corpus_error_rate(pairs: Sequence[tuple[str, str]], mode: str = "cer",
                      lang: str = "en", normalize: bool = True) -> CorpusRate:
    """Pooled error rate: sum of edit distances over sum of reference lengths.

    Scores with the edit distance alone; ``cer``/``wer`` give the same
    distance split into substitutions, insertions and deletions.
    """
    if mode not in ("cer", "wer"):
        raise ValueError(f"mode must be 'cer' or 'wer', got {mode!r}")
    _check_lang(lang)
    errors = 0
    ref_len = 0
    for ref, hyp in pairs:
        ref_tokens = _tokens(ref, mode, lang, normalize)
        errors += distance(ref_tokens, _tokens(hyp, mode, lang, normalize))
        ref_len += len(ref_tokens)
    return CorpusRate(utterances=len(pairs), errors=errors, reference_length=ref_len)


def _is_yes(response: str) -> bool:
    s = response.strip()
    while s and unicodedata.category(s[-1]).startswith("P"):
        s = s[:-1]
    return s.casefold() == "yes"


def only_yes_accuracy(responses: Sequence[str]) -> float:
    """Strict adherence: content must be exactly "yes" after trimming
    whitespace and terminal punctuation and case-folding."""
    if not responses:
        raise ValueError("responses must be non-empty")
    return sum(1 for r in responses if _is_yes(r)) / len(responses)


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("vectors must be non-empty")
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero vectors")
    return dot / (na * nb)


@dataclass(frozen=True)
class AblationCell:
    similarity: float
    consistency: float

    def __post_init__(self):
        if not -1.0 <= self.similarity <= 1.0:
            raise ValueError(f"similarity must be in [-1, 1], got {self.similarity}")
        if not 0.0 <= self.consistency <= 1.0:
            raise ValueError(f"consistency must be in [0, 1], got {self.consistency}")


def ablation_gap(a2t: AblationCell, a2a: AblationCell) -> tuple[float, float]:
    """Componentwise a2a - a2t (negative = degradation when speaking)."""
    return (a2a.similarity - a2t.similarity, a2a.consistency - a2t.consistency)
