"""Three-branch corpus cleaning and augmentation.

Routing is driven by upstream quality flags:

* correctable logical contradictions -> text corrected by an external LLM
  client, audio re-synthesized;
* severe contradictions -> problematic text spans masked, audio preserved
  byte-identically (masked spans drop out of loss-target sets downstream);
* missing context -> presupposed turns backfilled in front of the dialogue.

External clients are synchronous request/response with bounded retries;
a failed call defers the whole dialogue with zero mutations. Deterministic
mock clients ship with the toolkit so the full pipeline runs offline.
"""
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Protocol

from seqforge import corpus as corpus_mod
from seqforge.corpus import AlignmentSpan, AudioTokenSpan, Dialogue, Turn
from seqforge.reporting import SchemaError, ValidationReport
from seqforge.seeding import DetRng, derive_seed

DEFAULT_RETRIES = 3


class ClientError(RuntimeError):
    """External client failed (timeout, transport, malformed response)."""


class CorrectorClient(Protocol):
    def correct(self, text: str, context: Dialogue) -> str: ...

    def backfill(self, dialogue: Dialogue) -> list[Turn]: ...


class SynthClient(Protocol):
    def synthesize(self, text: str, speaker_id: str) -> AudioTokenSpan: ...


@dataclass
class CleaningOutcome:
    branch: str
    dialogue: Dialogue
    masked_spans: list[tuple[int, tuple[int, int]]] = field(default_factory=list)
    provenance: list[dict] = field(default_factory=list)
    status: str = "applied"  # applied | deferred | rejected
    detail: str | None = None


# --------------------------------------------------------------------------
# clients
# --------------------------------------------------------------------------

class MockCorrector:
    """Deterministic offline stand-in for the LLM corrector.

    correct() appends a fixed suffix (empty -> identity). backfill()
    prepends one user turn when the dialogue opens on an assistant turn.
    """

    def __init__(self, suffix: str = ""):
        self.suffix = suffix

    def correct(self, text: str, context: Dialogue) -> str:
        return text + self.suffix

    def backfill(self, dialogue: Dialogue) -> list[Turn]:
        if dialogue.turns and dialogue.turns[0].role == "assistant":
            return [Turn(role="user", speaker_id="backfill",
                         text=f"(presupposed context for {dialogue.id})")]
        return []


class MockSynth:
    """Deterministic pseudo-token synthesizer.

    Tokens are a seeded hash stream of (text, speaker_id); duration is set
    so the token/duration rounding bound holds exactly.
    """

    frame_rate_hz = 12.5
    vocab = 4096
    tokens_per_char = 2

    def synthesize(self, text: str, speaker_id: str) -> AudioTokenSpan:
        rng = DetRng(derive_seed(0x5EED, text, speaker_id, "synth"))
        n = max(1, self.tokens_per_char * len(text))
        ids = [rng.below(self.vocab) for _ in range(n)]
        return AudioTokenSpan(token_ids=ids, frame_rate_hz=self.frame_rate_hz,
                              duration_s=n / self.frame_rate_hz)


def _post_json(url: str, payload: dict, timeout: float, parse):
    """POST payload as JSON; return parse(result) of the response.

    Transport failures, service errors and malformed responses (parse raises
    SchemaError naming the bad field) all raise ClientError.
    """
    import http.client  # only the HTTP clients need these; the mock path starts faster without
    import urllib.error
    import urllib.request

    body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    req = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            doc = json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, http.client.HTTPException, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise ClientError(f"request to {url} failed: {exc}") from exc
    try:
        doc = corpus_mod._expect_object(doc, "response")
        if not doc.get("ok"):
            raise ClientError(f"service error from {url}: {doc.get('error', 'unknown')}")
        return parse(corpus_mod._require(doc, "result", "response"))
    except SchemaError as exc:
        raise ClientError(f"malformed response from {url}: {exc}") from exc


def _result_text(result) -> str:
    return corpus_mod._expect_str(result, "response.result")


def _result_turns(result) -> list[Turn]:
    turns = corpus_mod._expect_list(result, "response.result")
    return corpus_mod._parse_items(corpus_mod._parse_turn, turns, "response", "result")


def _result_audio(result) -> AudioTokenSpan:
    return corpus_mod._parse_audio(result, "response.result")


class HttpCorrectorClient:
    """JSON request/response corrector over HTTP."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def correct(self, text: str, context: Dialogue) -> str:
        return _post_json(
            f"{self.base_url}/correct",
            {"op": "correct",
             "payload": {"text": text, "context": corpus_mod.dialogue_to_dict(context)},
             "provenance_id": context.id},
            self.timeout, _result_text,
        )

    def backfill(self, dialogue: Dialogue) -> list[Turn]:
        return _post_json(
            f"{self.base_url}/backfill",
            {"op": "backfill",
             "payload": {"dialogue": corpus_mod.dialogue_to_dict(dialogue)},
             "provenance_id": dialogue.id},
            self.timeout, _result_turns,
        )


class HttpSynthClient:
    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def synthesize(self, text: str, speaker_id: str) -> AudioTokenSpan:
        return _post_json(
            f"{self.base_url}/synthesize",
            {"op": "synthesize",
             "payload": {"text": text, "speaker_id": speaker_id},
             "provenance_id": speaker_id},
            self.timeout, _result_audio,
        )


# --------------------------------------------------------------------------
# routing and branches
# --------------------------------------------------------------------------

def route(dialogue: Dialogue) -> str:
    """Pick the cleaning branch; co-occurring flags resolve by severity."""
    kinds = {f.kind for f in dialogue.quality_flags}
    if "logic_contradiction_severe" in kinds:
        return "information_preservation"
    if "missing_context" in kinds:
        return "context_completion"
    if "logic_contradiction_correctable" in kinds:
        return "logic_correction"
    return "passthrough"


def _digest(obj) -> str:
    blob = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _call_with_retry(provenance, op: str, turn_index, fn, request_doc, retries: int):
    """Run a client call with bounded retries; log every attempt."""
    if retries < 1:
        raise ValueError(f"retries must be >= 1, got {retries}")
    last_error = None
    for attempt in range(1, retries + 1):
        try:
            result = fn()
        except ClientError as exc:
            last_error = exc
            provenance.append({"op": op, "turn": turn_index, "attempt": attempt,
                               "ok": False, "error": str(exc),
                               "request": _digest(request_doc)})
            continue
        provenance.append({"op": op, "turn": turn_index, "attempt": attempt,
                           "ok": True, "request": _digest(request_doc),
                           "response": _digest(_result_repr(result))})
        return result
    raise last_error


def _result_repr(result):
    if isinstance(result, AudioTokenSpan):
        return corpus_mod._audio_dict(result)
    if isinstance(result, list) and result and isinstance(result[0], Turn):
        return [corpus_mod._turn_dict(t) for t in result]
    return result


def _flagged_turn_indices(dialogue: Dialogue, kind: str) -> list[int]:
    indices: set[int] = set()
    has_spans = False
    for flag in dialogue.quality_flags:
        if flag.kind != kind:
            continue
        for turn_index, _ in flag.spans:
            has_spans = True
            indices.add(turn_index)
    if has_spans:
        return sorted(indices)
    # No spans: the correction applies to every assistant response.
    return [i for i, t in enumerate(dialogue.turns) if t.role == "assistant"]


def apply_logic_correction(
    dialogue: Dialogue,
    corrector: CorrectorClient,
    synth: SynthClient,
    seed: int = 0,
    retries: int = DEFAULT_RETRIES,
) -> CleaningOutcome:
    """Correct flagged responses and re-synthesize their audio.

    Corrected turns get a single whole-turn alignment span (sub-sentence
    re-alignment is an upstream tool, not fabricated here). On client
    failure the outcome is deferred and the input stays untouched.
    seed is reserved for clients that take seeded requests; the bundled
    mocks derive determinism from content hashes instead.
    """
    provenance: list[dict] = []
    targets = _flagged_turn_indices(dialogue, "logic_contradiction_correctable")
    replacements: dict[int, tuple[str, AudioTokenSpan]] = {}
    try:
        for i in targets:
            turn = dialogue.turns[i]
            corrected = _call_with_retry(
                provenance, "correct", i,
                lambda t=turn: corrector.correct(t.text, dialogue),
                {"text": turn.text, "dialogue": dialogue.id}, retries)
            audio = _call_with_retry(
                provenance, "synthesize", i,
                lambda txt=corrected, spk=turn.speaker_id: synth.synthesize(txt, spk),
                {"text": corrected, "speaker_id": turn.speaker_id}, retries)
            replacements[i] = (corrected, audio)
    except ClientError as exc:
        return CleaningOutcome(branch="logic_correction", dialogue=dialogue,
                               provenance=provenance, status="deferred", detail=str(exc))

    # Unchanged turns and flags are shared with the input, which is never mutated.
    turns = list(dialogue.turns)
    for i, (corrected, audio) in replacements.items():
        turns[i] = replace(turns[i], text=corrected, audio=audio, alignment=[
            AlignmentSpan(text_range=(0, len(corrected)), audio_range=(0, audio.n_tokens),
                          index=0)])
    out = replace(dialogue, turns=turns, quality_flags=[
        f for f in dialogue.quality_flags if f.kind != "logic_contradiction_correctable"])
    return CleaningOutcome(branch="logic_correction", dialogue=out, provenance=provenance)


def apply_masking(dialogue: Dialogue) -> CleaningOutcome:
    """Mask problematic text spans; dialogue content stays byte-identical."""
    spans: list[tuple[int, tuple[int, int]]] = []
    for flag in dialogue.quality_flags:
        if flag.kind == "logic_contradiction_severe":
            if not flag.spans:
                raise ValueError(
                    f"dialogue {dialogue.id!r}: severe contradiction flag without spans")
            spans.extend((ti, tuple(rng)) for ti, rng in flag.spans)
    if not spans:
        raise ValueError(f"dialogue {dialogue.id!r} is not flagged for masking")
    return CleaningOutcome(branch="information_preservation", dialogue=dialogue,
                           masked_spans=spans)


def apply_context_completion(
    dialogue: Dialogue,
    corrector: CorrectorClient,
    synth: SynthClient,
    seed: int = 0,
    retries: int = DEFAULT_RETRIES,
) -> CleaningOutcome:
    """Prepend presupposed turns inferred by the corrector client.

    A backfilled turn without audio gets synthesized audio, so every turn
    can be drawn as speech downstream. A client failure defers the dialogue;
    a backfill that breaks role alternation is rejected with the validation
    report. Originals are never modified.
    """
    provenance: list[dict] = []
    try:
        backfilled = _call_with_retry(
            provenance, "backfill", None,
            lambda: corrector.backfill(dialogue),
            {"dialogue": dialogue.id}, retries)
        new_turns = []
        for i, t in enumerate(backfilled):
            if t.audio is None:
                t = replace(t, audio=_call_with_retry(
                    provenance, "synthesize", i,
                    lambda t=t: synth.synthesize(t.text, t.speaker_id),
                    {"text": t.text, "speaker_id": t.speaker_id}, retries))
            new_turns.append(t)
    except ClientError as exc:
        return CleaningOutcome(branch="context_completion", dialogue=dialogue,
                               provenance=provenance, status="deferred", detail=str(exc))

    flags = [f for f in dialogue.quality_flags if f.kind != "missing_context"]
    offset = len(new_turns)
    if offset:
        # Flag spans address turns by index; shift them past the prepended turns.
        flags = [replace(f, spans=[(ti + offset, rng) for ti, rng in f.spans]) for f in flags]
    # The input's turns are shared, never mutated.
    out = replace(dialogue, turns=new_turns + dialogue.turns, quality_flags=flags)
    if not offset:
        return CleaningOutcome(branch="context_completion", dialogue=out,
                               provenance=provenance)

    report = ValidationReport()
    for i, turn in enumerate(out.turns):
        expected = corpus_mod.ROLES[i % 2]
        if turn.role != expected:
            report.add(f"turns[{i}].role", f"expected {expected!r}, got {turn.role!r}")
    if not report.ok:
        return CleaningOutcome(branch="context_completion", dialogue=dialogue,
                               provenance=provenance, status="rejected",
                               detail="; ".join(str(v) for v in report.violations))
    return CleaningOutcome(branch="context_completion", dialogue=out, provenance=provenance)


def clean_dialogue(
    dialogue: Dialogue,
    corrector: CorrectorClient,
    synth: SynthClient,
    seed: int = 0,
    retries: int = DEFAULT_RETRIES,
) -> CleaningOutcome:
    branch = route(dialogue)
    if branch == "passthrough":
        return CleaningOutcome(branch="passthrough", dialogue=dialogue)
    if branch == "information_preservation":
        return apply_masking(dialogue)
    if branch == "context_completion":
        return apply_context_completion(dialogue, corrector, synth, seed=seed, retries=retries)
    return apply_logic_correction(dialogue, corrector, synth, seed=seed, retries=retries)


def outcome_to_dict(outcome: CleaningOutcome) -> dict:
    return {
        "dialogue_id": outcome.dialogue.id,
        "branch": outcome.branch,
        "status": outcome.status,
        "masked_spans": [[ti, list(rng)] for ti, rng in outcome.masked_spans],
        "provenance": outcome.provenance,
        "detail": outcome.detail,
    }
