"""Output checks that do not call the code under test.

Each check takes the benchmark's own view of the inputs (decoded with
``json``) and returns the set of record ids whose output is wrong. The one
exception is the talker grammar: every talker line must parse with
``talker.parse_sequence``, the program's own round-trip oracle, and the
parsed parts are then compared with the input here.
"""
import hashlib
import json
import unicodedata
from pathlib import Path

BRANCH_FOR_FLAG = {
    None: "passthrough",
    "clean": "passthrough",
    "logic_contradiction_correctable": "logic_correction",
    "logic_contradiction_severe": "information_preservation",
}


def read_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def body_digest(path: Path, header: bool) -> tuple[str, int]:
    """sha256 and byte size of a file, without its manifest header line."""
    with open(path, "rb") as fh:
        if header:
            fh.readline()
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def flag_kind(doc: dict) -> str | None:
    return doc["quality_flags"][0]["kind"] if doc["quality_flags"] else None


def severe_masks(docs: list[dict]) -> dict[str, list]:
    """dialogue id -> [(turn, (start, end))] of every severe flag span."""
    return {d["id"]: [(ti, tuple(rng)) for ti, rng in d["quality_flags"][0]["spans"]]
            for d in docs if flag_kind(d) == "logic_contradiction_severe"}


# --------------------------------------------------------------------------
# validate / clean
# --------------------------------------------------------------------------

def check_validate(stdout: str, n_dialogues: int) -> bool:
    doc = json.loads(stdout)
    return doc == {"dialogues": n_dialogues, "rejects": [], "violations": []}


def check_clean(src_lines: list[str], src_docs: list[dict], out_lines: list[str],
                outcome_lines: list[str], deferred_lines: list[str]) -> set[str]:
    """Branch per generated flag; unchanged dialogues come back byte-identical."""
    bad = set()
    if len(out_lines) != len(src_docs) or len(outcome_lines) != len(src_docs) or deferred_lines:
        return {d["id"] for d in src_docs}
    masks = severe_masks(src_docs)
    for src_line, src, out_line, outcome_line in zip(src_lines, src_docs, out_lines,
                                                     outcome_lines):
        did = src["id"]
        outcome = json.loads(outcome_line)
        branch = BRANCH_FOR_FLAG[flag_kind(src)]
        expect_spans = [[ti, list(rng)] for ti, rng in masks.get(did, [])]
        if (outcome["dialogue_id"] != did or outcome["branch"] != branch
                or outcome["status"] != "applied" or outcome["masked_spans"] != expect_spans):
            bad.add(did)
            continue
        if branch != "logic_correction":
            if out_line != src_line:
                bad.add(did)
            continue
        if not _check_corrected(src, json.loads(out_line)):
            bad.add(did)
    return bad


def _check_corrected(src: dict, out: dict) -> bool:
    """The mock corrector keeps the text; the flagged turn gets new audio and
    a single whole-turn alignment span, and the correctable flag is dropped."""
    targets = {ti for ti, _ in src["quality_flags"][0]["spans"]}
    if out["quality_flags"] != [] or len(out["turns"]) != len(src["turns"]):
        return False
    for ti, (a, b) in enumerate(zip(src["turns"], out["turns"])):
        if ti not in targets:
            if a != b:
                return False
            continue
        n = len(b["audio"]["token_ids"])
        if (b["text"] != a["text"] or b["role"] != a["role"]
                or b["speaker_id"] != a["speaker_id"] or n != 2 * len(a["text"])
                or b["audio"]["duration_s"] != n / b["audio"]["frame_rate_hz"]
                or b["alignment"] != [{"text_range": [0, len(a["text"])],
                                       "audio_range": [0, n], "index": 0}]):
            return False
    return True


# --------------------------------------------------------------------------
# build-thinker
# --------------------------------------------------------------------------

def _overlaps(a, b) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def check_thinker(body_lines: list[str], docs: list[dict], masks: dict[str, list]) -> set[str]:
    """Elements follow the input turn by turn and segment by segment."""
    if len(body_lines) != len(docs):
        return {d["id"] for d in docs}
    return {d["id"] for line, d in zip(body_lines, docs)
            if not _thinker_line_ok(json.loads(line), d, masks.get(d["id"], []))}


def _thinker_line_ok(seq: dict, d: dict, masks: list) -> bool:
    did = d["id"]
    if seq["dialogue_id"] != did:
        return False
    elements = iter(seq["elements"])
    for ti, turn in enumerate(d["turns"]):
        tokens = turn["audio"]["token_ids"] if "audio" in turn else None
        if turn["role"] == "user":
            expected = [(0, (0, len(turn["text"])), (0, len(tokens or ())))]
        else:
            expected = [(s["index"], tuple(s["text_range"]), tuple(s["audio_range"]))
                        for s in turn["alignment"]]
        turn_masks = [rng for mt, rng in masks if mt == ti]
        for k, (index, (ts, te), (aus, aue)) in enumerate(expected):
            e = next(elements, None)
            if e is None or e["role"] != turn["role"] or e["origin"] != [did, ti, index]:
                return False
            final_assistant = turn["role"] == "assistant" and k == len(expected) - 1
            if e["modality"] == "text":
                target = turn["role"] == "assistant" and not any(
                    _overlaps((ts, te), m) for m in turn_masks)
                if e.get("text") != turn["text"][ts:te] or "tokens" in e \
                        or e["loss_target"] != target:
                    return False
            elif e["modality"] == "speech" and not final_assistant and tokens is not None:
                if e.get("tokens") != tokens[aus:aue] or "text" in e or e["loss_target"]:
                    return False
            else:
                return False
    return next(elements, None) is None


# --------------------------------------------------------------------------
# build-talker
# --------------------------------------------------------------------------

def check_talker(body_lines: list[str], docs: list[dict], parse_sequence) -> set[str]:
    """Grammar round trip, independent same-speaker reference, blocks = turns."""
    if len(body_lines) != len(docs):
        return {d["id"] for d in docs}
    by_id = {d["id"]: d for d in docs}
    bad = set()
    for line, d in zip(body_lines, docs):
        seq = json.loads(line)
        try:
            parsed = parse_sequence([tuple(t) for t in seq["tokens"]])
        except ValueError:
            bad.add(d["id"])
            continue
        ref_id, ref_turn = seq["manifest"]["ref_origin"]
        speaker = next(t["speaker_id"] for t in d["turns"] if t["role"] == "assistant")
        ref_doc = by_id.get(ref_id)
        ok = (seq["manifest"]["dialogue_id"] == d["id"] and ref_id != d["id"]
              and ref_doc is not None and ref_doc["turns"][ref_turn]["speaker_id"] == speaker
              and parsed.ref == ref_doc["turns"][ref_turn]["audio"]["token_ids"]
              and len(seq["speech_loss_mask"]) == len(seq["tokens"])
              and len(parsed.blocks) == len(d["turns"]))
        for block, turn in zip(parsed.blocks, d["turns"]):
            if not ok:
                break
            text_ids = [ord(c) for c in turn["text"]] if turn["role"] == "assistant" else []
            ok = (block.role == turn["role"] and block.text_ids == text_ids
                  and block.speech_ids == turn["audio"]["token_ids"])
        if not ok:
            bad.add(d["id"])
    return bad


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def normalize(text: str) -> str:
    """Lowercase, drop Unicode punctuation (categories P*), collapse spaces."""
    text = "".join(c for c in text.lower() if not unicodedata.category(c).startswith("P"))
    return " ".join(text.split())


def levenshtein(a, b) -> int:
    """Unit-cost edit distance by bit-parallel dynamic programming.

    Myers (J. ACM 46(3), 1999) in the global-distance form of Hyyrö (2001):
    one column of the DP matrix is held as two bit vectors of vertical +1/-1
    deltas, and each symbol of ``b`` updates it with a few integer
    operations. It shares nothing with the program's row-by-row kernel.
    """
    m = len(a)
    if m == 0:
        return len(b)
    peq: dict = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
    return score


def expected_rates(refs: list[str], hyps: list[str]) -> dict[str, dict]:
    """Pooled errors and reference length for `eval cer` and `eval wer --lang en`."""
    out = {}
    for mode in ("cer", "wer"):
        errors = ref_len = 0
        for ref, hyp in zip(refs, hyps):
            r, h = normalize(ref), normalize(hyp)
            if mode == "wer":
                r, h = r.split(), h.split()
            errors += levenshtein(r, h)
            ref_len += len(r)
        out[mode] = {"metric": mode, "utterances": len(refs), "errors": errors,
                     "reference_length": ref_len, "rate": errors / max(1, ref_len)}
    return out


def check_eval(stdout: str, expected: dict) -> bool:
    return json.loads(stdout) == expected
