"""Three-branch cleaning: routing, branch semantics, client behaviour."""
import contextlib
import copy
import hashlib
import io
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from seqforge import cleaning, thinker
from seqforge.cleaning import (ClientError, HttpCorrectorClient, HttpSynthClient,
                               MockCorrector, MockSynth, apply_context_completion,
                               apply_logic_correction, apply_masking,
                               clean_dialogue, route)
from seqforge.cli import run
from seqforge.corpus import (Dialogue, QualityFlag, Turn, serialize_dialogue,
                             validate_dialogue)

import synthetic
from conftest import FlakyClient, extract_loss_targets, make_dialogue, write_corpus


def flagged(kind, spans=None, **kw):
    d = synthetic.synth_dialogue(3, 0, **kw)
    if kind is not None:
        if spans is None and kind not in ("clean",):
            target = next(i for i, t in enumerate(d.turns) if t.role == "assistant")
            spans = [(target, (0, max(1, len(d.turns[target].text) // 2)))]
        d.quality_flags = [QualityFlag(kind=kind, spans=spans or [])]
    return d


# --------------------------------------------------------------------------
# routing
# --------------------------------------------------------------------------

def test_clean_routes_to_passthrough():
    assert route(flagged(None)) == "passthrough"
    assert route(flagged("clean")) == "passthrough"


def test_single_flag_routes():
    assert route(flagged("logic_contradiction_correctable")) == "logic_correction"
    assert route(flagged("logic_contradiction_severe")) == "information_preservation"
    assert route(flagged("missing_context", spans=[])) == "context_completion"


def test_severity_precedence_on_cooccurring_flags():
    d = flagged("logic_contradiction_severe")
    d.quality_flags.append(QualityFlag(kind="missing_context"))
    assert route(d) == "information_preservation"
    d2 = flagged("missing_context", spans=[])
    d2.quality_flags.append(QualityFlag(kind="logic_contradiction_correctable",
                                        spans=[(1, (0, 1))]))
    assert route(d2) == "context_completion"


# --------------------------------------------------------------------------
# logic correction
# --------------------------------------------------------------------------

def test_identity_corrector_replaces_audio_keeps_text():
    d = flagged("logic_contradiction_correctable")
    before = copy.deepcopy(d)
    out = apply_logic_correction(d, MockCorrector(), MockSynth())
    flagged_turn = before.quality_flags[0].spans[0][0]
    assert out.dialogue.turns[flagged_turn].text == before.turns[flagged_turn].text
    assert out.dialogue.turns[flagged_turn].audio.token_ids \
        != before.turns[flagged_turn].audio.token_ids
    # input untouched
    assert serialize_dialogue(d) == serialize_dialogue(before)


def test_suffix_corrector_touches_exactly_flagged_turns():
    d = flagged("logic_contradiction_correctable", n_turns=4)
    before = copy.deepcopy(d)
    out = apply_logic_correction(d, MockCorrector(suffix=" (fixed)"), MockSynth())
    target = before.quality_flags[0].spans[0][0]
    for i, turn in enumerate(out.dialogue.turns):
        if i == target:
            assert turn.text == before.turns[i].text + " (fixed)"
            assert len(turn.alignment) == 1
            assert turn.alignment[0].text_range == (0, len(turn.text))
        else:
            assert turn.text == before.turns[i].text
            assert turn.audio.token_ids == before.turns[i].audio.token_ids
    assert validate_dialogue(out.dialogue).ok


def test_client_failure_defers_with_zero_mutations():
    d = flagged("logic_contradiction_correctable")
    before = serialize_dialogue(d)
    corrector = FlakyClient(MockCorrector(), fail_calls=99)
    out = apply_logic_correction(d, corrector, MockSynth(), retries=3)
    assert out.status == "deferred"
    assert serialize_dialogue(out.dialogue) == before
    attempts = [p for p in out.provenance if p["op"] == "correct"]
    assert len(attempts) == 3 and not any(p["ok"] for p in attempts)


def test_transient_failure_recovers_within_retry_budget():
    d = flagged("logic_contradiction_correctable")
    corrector = FlakyClient(MockCorrector(), fail_calls=2)
    out = apply_logic_correction(d, corrector, MockSynth(), retries=3)
    assert out.status == "applied"
    correct_calls = [p for p in out.provenance if p["op"] == "correct"]
    assert [p["ok"] for p in correct_calls] == [False, False, True]


def test_retries_below_one_is_a_value_error():
    d = flagged("logic_contradiction_correctable")
    with pytest.raises(ValueError, match="retries must be >= 1"):
        apply_logic_correction(d, MockCorrector(), MockSynth(), retries=0)


def test_provenance_attributes_every_mutation():
    d = flagged("logic_contradiction_correctable", n_turns=4)
    out = apply_logic_correction(d, MockCorrector(suffix="!"), MockSynth())
    mutated = {i for i, (a, b) in enumerate(zip(d.turns, out.dialogue.turns))
               if serialize_dialogue(Dialogue(id="x", turns=[a]))
               != serialize_dialogue(Dialogue(id="x", turns=[b]))}
    logged = {p["turn"] for p in out.provenance if p["ok"]}
    assert mutated == logged


@pytest.mark.parametrize("spans", [None, []], ids=["flagged-turn", "every-assistant-turn"])
def test_logic_correction_replaces_turns_and_never_mutates_its_input(spans):
    d = flagged("logic_contradiction_correctable", spans=spans, n_turns=4)
    d.quality_flags.append(QualityFlag(kind="clean"))
    before = serialize_dialogue(d)
    turns, flags = list(d.turns), list(d.quality_flags)
    out = apply_logic_correction(d, MockCorrector(suffix=" (fixed)"), MockSynth()).dialogue
    assert serialize_dialogue(d) == before
    assert d.turns == turns and d.quality_flags == flags
    replaced = {i for i, t in enumerate(out.turns) if t.text.endswith(" (fixed)")}
    assert replaced == ({1} if spans is None else {1, 3})
    for i, (old, new) in enumerate(zip(d.turns, out.turns)):
        assert (new is not old) == (i in replaced)
    assert out.turns is not d.turns
    assert out.quality_flags is not d.quality_flags
    assert [f.kind for f in out.quality_flags] == ["clean"]


def test_context_completion_never_mutates_its_input():
    d = flagged("missing_context", spans=[], n_turns=4, truncate_first_turn=True)
    d.quality_flags.append(QualityFlag(kind="logic_contradiction_severe", spans=[(0, (0, 1))]))
    before = serialize_dialogue(d)
    out = apply_context_completion(d, MockCorrector(), MockSynth()).dialogue
    assert serialize_dialogue(d) == before
    assert out.turns[1:] == d.turns and out.turns is not d.turns
    assert out.quality_flags is not d.quality_flags
    assert [f.spans for f in out.quality_flags] == [[(1, (0, 1))]]
    assert d.quality_flags[1].spans == [(0, (0, 1))]
    # Without a backfill only the flag list changes.
    d = flagged("missing_context", spans=[])
    before = serialize_dialogue(d)
    out = apply_context_completion(d, MockCorrector(), MockSynth()).dialogue
    assert serialize_dialogue(d) == before
    assert out.quality_flags == [] and out.quality_flags is not d.quality_flags


# --------------------------------------------------------------------------
# masking
# --------------------------------------------------------------------------

def _audio_hash(d: Dialogue) -> str:
    h = hashlib.sha256()
    for t in d.turns:
        if t.audio is not None:
            h.update(json.dumps(t.audio.token_ids).encode())
    return h.hexdigest()


def test_masking_preserves_dialogue_bytes():
    d = flagged("logic_contradiction_severe")
    before = serialize_dialogue(d)
    out = apply_masking(d)
    assert out.branch == "information_preservation"
    assert len(out.masked_spans) == 1
    assert serialize_dialogue(out.dialogue) == before
    assert _audio_hash(out.dialogue) == _audio_hash(d)


def test_masking_requires_spans():
    d = flagged("logic_contradiction_severe")
    d.quality_flags[0].spans = []
    with pytest.raises(ValueError, match="without spans"):
        apply_masking(d)
    with pytest.raises(ValueError, match="not flagged"):
        apply_masking(flagged(None))


def test_masked_dialogue_drops_segment_from_loss_targets():
    d = flagged("logic_contradiction_severe", segments_per_assistant=3)
    out = apply_masking(d)
    policy = thinker.InterleavePolicy(0.0, 0.0)
    seq = thinker.interleave_dialogue(out.dialogue, policy, 1,
                                      masked_spans=out.masked_spans)
    target_turn, masked_range = out.masked_spans[0]
    for origin, text in extract_loss_targets(seq):
        _, ti, si = origin
        if ti == target_turn:
            span = d.turns[ti].alignment[si]
            assert not (span.text_range[0] < masked_range[1]
                        and masked_range[0] < span.text_range[1])


# --------------------------------------------------------------------------
# context completion
# --------------------------------------------------------------------------

def test_backfill_repairs_assistant_initial_fragment():
    d = flagged("missing_context", spans=[], n_turns=4, truncate_first_turn=True)
    assert d.turns[0].role == "assistant"
    assert not validate_dialogue(d).ok
    out = apply_context_completion(d, MockCorrector(), MockSynth())
    assert out.status == "applied"
    assert validate_dialogue(out.dialogue).ok
    assert [t.text for t in out.dialogue.turns[1:]] == [t.text for t in d.turns]
    backfilled = out.dialogue.turns[0]
    assert backfilled.audio == MockSynth().synthesize(backfilled.text, backfilled.speaker_id)


def test_empty_backfill_is_passthrough_equivalent():
    d = flagged("missing_context", spans=[])  # starts with user: mock returns []
    out = apply_context_completion(d, MockCorrector(), MockSynth())
    assert out.status == "applied"
    assert [t.text for t in out.dialogue.turns] == [t.text for t in d.turns]
    assert not out.dialogue.quality_flags


class AdversarialBackfill(MockCorrector):
    def backfill(self, dialogue):
        return [Turn(role="user", speaker_id="b", text="one"),
                Turn(role="user", speaker_id="b", text="two")]


def test_backfill_breaking_alternation_is_rejected():
    d = flagged("missing_context", spans=[], n_turns=4, truncate_first_turn=True)
    before = serialize_dialogue(d)
    out = apply_context_completion(d, AdversarialBackfill(), MockSynth())
    assert out.status == "rejected"
    assert "turns[1].role" in out.detail
    assert serialize_dialogue(out.dialogue) == before


def test_rejected_backfill_carries_the_role_violations_of_validate():
    d = flagged("missing_context", spans=[], n_turns=4, truncate_first_turn=True)
    out = apply_context_completion(d, AdversarialBackfill(), MockSynth())
    backfilled = Dialogue(d.id, AdversarialBackfill().backfill(d) + d.turns)
    roles = [str(v) for v in validate_dialogue(backfilled).violations if v.path.endswith(".role")]
    assert roles[0] == "turns[1].role: role alternation violated: expected 'assistant', got 'user'"
    assert out.detail == "; ".join(roles)


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------

def test_pipeline_idempotent_on_clean_dialogues():
    dialogues = [flagged(None), flagged("clean")]
    outcomes = [clean_dialogue(d, MockCorrector(), MockSynth()) for d in dialogues]
    for d, out in zip(dialogues, outcomes):
        assert out.branch == "passthrough"
        assert serialize_dialogue(out.dialogue) == serialize_dialogue(d)
        again = clean_dialogue(out.dialogue, MockCorrector(), MockSynth())
        assert serialize_dialogue(again.dialogue) == serialize_dialogue(d)


def test_pipeline_outputs_validate():
    dialogues = [
        flagged(None),
        flagged("logic_contradiction_correctable"),
        flagged("logic_contradiction_severe"),
        flagged("missing_context", spans=[], n_turns=4, truncate_first_turn=True),
    ]
    outcomes = [clean_dialogue(d, MockCorrector(), MockSynth()) for d in dialogues]
    assert [o.branch for o in outcomes] == [
        "passthrough", "logic_correction", "information_preservation",
        "context_completion"]
    for o in outcomes:
        assert validate_dialogue(o.dialogue).ok
        assert (o.branch == "information_preservation") == bool(o.masked_spans)


# --------------------------------------------------------------------------
# HTTP clients against a local in-process server
# --------------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/correct":
            result = body["payload"]["text"] + " [http]"
        elif self.path == "/backfill":
            result = []
        elif self.path == "/synthesize":
            n = max(1, len(body["payload"]["text"]))
            result = {"token_ids": list(range(n)), "frame_rate_hz": 12.5,
                      "duration_s": n / 12.5}
        else:
            self.send_response(404)
            self.end_headers()
            return
        blob = json.dumps({"ok": True, "result": result}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


class _FixedHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's fixed body and Content-Length (if set)."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        length = getattr(self.server, "length", None)
        if length is not None:
            self.send_header("Content-Length", str(length))
            self.close_connection = True
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serve(handler, **attrs):
    server = HTTPServer(("127.0.0.1", 0), handler)
    for name, value in attrs.items():
        setattr(server, name, value)
    # shutdown() waits up to one poll interval; the default 0.5 s would be
    # most of each HTTP test's time.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def http_service():
    with _serve(_Handler) as url:
        yield url


def test_http_clients_round_trip(http_service):
    corrector = HttpCorrectorClient(http_service)
    synth = HttpSynthClient(http_service)
    assert corrector.correct("hello", make_dialogue("ctx")) == "hello [http]"
    assert corrector.backfill(make_dialogue("ctx")) == []
    span = synth.synthesize("hi", "spk")
    assert span.n_tokens == 2 and span.frame_rate_hz == 12.5


def test_http_client_error_becomes_deferral(http_service):
    corrector = HttpCorrectorClient("http://127.0.0.1:1")  # nothing listens here
    d = flagged("logic_contradiction_correctable")
    out = apply_logic_correction(d, corrector, MockSynth(), retries=2)
    assert out.status == "deferred"
    assert "failed" in out.detail


def test_clean_cli_over_http_is_invariant_to_jobs(http_service, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dialogues = [flagged(kind, n_turns=4) for _ in range(3) for kind in
                 (None, "logic_contradiction_correctable", "logic_contradiction_severe")]
    for k, d in enumerate(dialogues):
        d.id = f"d{k}"
    write_corpus(dialogues, "corpus.jsonl")
    with open("http.json", "w", encoding="utf-8") as fh:
        json.dump({"corrector_url": http_service, "synth_url": http_service}, fh)
    outputs = []
    for jobs in ("1", "2"):
        assert run(["clean", "--corpus", "corpus.jsonl", "--client", "http",
                    "--config", "http.json", "--out", "c.jsonl", "--jobs", jobs]) == 0
        outputs.append([(tmp_path / name).read_bytes() for name in
                        ("c.jsonl", "c.jsonl.outcomes.jsonl", "c.jsonl.deferred.jsonl",
                         "c.jsonl.manifest.json")])
    assert outputs[0] == outputs[1]
    assert b"[http]" in outputs[0][0]


def test_clean_over_http_takes_the_largest_socket_timeout(http_service, tmp_path,
                                                        monkeypatch):
    """timeout_s up to threading.TIMEOUT_MAX reaches the socket; above it,
    --config refuses it as a usage error (test_cli)."""
    monkeypatch.chdir(tmp_path)
    write_corpus([flagged("logic_contradiction_correctable", n_turns=4)], "corpus.jsonl")
    with open("http.json", "w", encoding="utf-8") as fh:
        json.dump({"corrector_url": http_service, "synth_url": http_service,
                   "timeout_s": threading.TIMEOUT_MAX}, fh)
    assert run(["clean", "--corpus", "corpus.jsonl", "--client", "http",
                "--config", "http.json", "--out", "c.jsonl"]) == 0
    assert b"[http]" in (tmp_path / "c.jsonl").read_bytes()


_CALLS = {
    "correct": lambda url: HttpCorrectorClient(url).correct("hi", make_dialogue("ctx")),
    "backfill": lambda url: HttpCorrectorClient(url).backfill(make_dialogue("ctx")),
    "synthesize": lambda url: HttpSynthClient(url).synthesize("hi", "spk"),
}


_MALFORMED = [
    ("correct", {"ok": True}, "response: missing field 'result'"),
    ("correct", {"ok": True, "result": 5}, "response.result: expected string, got int"),
    ("correct", {"ok": True, "result": None}, "response.result: expected string, got NoneType"),
    ("backfill", {"ok": True}, "response: missing field 'result'"),
    ("backfill", {"ok": True, "result": "x"}, "response.result: expected array, got str"),
    ("backfill", {"ok": True, "result": [{"role": "user", "text": "hi"}]},
     "response.result[0]: missing field 'speaker_id'"),
    ("backfill", {"ok": True, "result": [{"role": "system", "speaker_id": "s", "text": "hi"}]},
     "response.result[0].role: 'system' not one of ['user', 'assistant']"),
    ("synthesize", {"ok": True}, "response: missing field 'result'"),
    ("synthesize", {"ok": True, "result": {"token_ids": "12", "frame_rate_hz": 12.5,
                                           "duration_s": 0.16}},
     "response.result.token_ids: expected array, got str"),
    ("synthesize", {"ok": True, "result": [1, 2]}, "response.result: expected object"),
    ("synthesize", [], "response: expected object"),
    ("synthesize", {"ok": True, "result": {"token_ids": [1], "frame_rate_hz": 12.5,
                                           "duration_s": float("inf")}},
     "response.result: frame_rate_hz/duration_s must be finite numbers"),
]


@pytest.mark.parametrize("op, body, reason", _MALFORMED,
                         ids=[f"{op}-{k}" for k, (op, _, _) in enumerate(_MALFORMED)])
def test_malformed_response_is_a_client_error(op, body, reason):
    with _serve(_FixedHandler, body=json.dumps(body).encode()) as url:
        with pytest.raises(ClientError,
                           match=re.escape(f"malformed response from {url}/{op}: {reason}")):
            _CALLS[op](url)


class _RecordingHandler(_Handler):
    """_Handler that also keeps each request's (path, Content-Type, body bytes)."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((self.path, self.headers["Content-Type"], body))
        self.rfile = io.BytesIO(body)
        super().do_POST()


# sha256 of each op's request body as the service receives it; the context
# dialogue carries non-ASCII text, which goes out as UTF-8, not escaped.
_REQUEST_SHA256 = {
    "correct": "b23c771da10fe14219af41f3841354be5e833857d1cf0af461c453624f0b098e",
    "backfill": "69b2948594968e0430057933a428f31d2a8dc43ea75aab68e0ca75dd552eedad",
    "synthesize": "b5974ae641648692da9b42753b7f86d1b3b55f517ab4ccd9c2c38a457ce6c794",
}


@pytest.mark.parametrize("op", sorted(_REQUEST_SHA256))
def test_request_bodies_match_frozen_bytes(op):
    context = make_dialogue("ctx-早")
    context.turns[0].text = "早上好 🎵 \"q\""
    calls = {
        "correct": lambda url: HttpCorrectorClient(url + "/").correct("你好 ok", context),
        "backfill": lambda url: HttpCorrectorClient(url).backfill(context),
        "synthesize": lambda url: HttpSynthClient(url).synthesize("你好 ok", "spk-é"),
    }
    requests = []
    with _serve(_RecordingHandler, requests=requests) as url:
        calls[op](url)
    [(path, content_type, body)] = requests
    assert (path, content_type) == (f"/{op}", "application/json")
    assert hashlib.sha256(body).hexdigest() == _REQUEST_SHA256[op], body
    if op == "synthesize":
        assert body == ('{"op": "synthesize", "payload": {"text": "你好 ok", '
                        '"speaker_id": "spk-é"}, "provenance_id": "spk-é"}').encode("utf-8")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_service_error_defers_the_dialogue(tmp_path, monkeypatch, jobs):
    monkeypatch.chdir(tmp_path)
    dialogues = [flagged(kind, n_turns=4) for kind in (None, "logic_contradiction_correctable")]
    for k, d in enumerate(dialogues):
        d.id = f"d{k}"
    write_corpus(dialogues, "corpus.jsonl")
    with _serve(_FixedHandler, body=b'{"ok": false, "error": "overloaded"}') as url:
        with open("http.json", "w", encoding="utf-8") as fh:
            json.dump({"corrector_url": url, "synth_url": url}, fh)
        assert run(["clean", "--corpus", "corpus.jsonl", "--client", "http", "--config",
                    "http.json", "--out", "c.jsonl", "--jobs", jobs, "--retries", "1"]) == 0
    [deferred] = map(json.loads, (tmp_path / "c.jsonl.deferred.jsonl").read_text(
        encoding="utf-8").splitlines())
    assert deferred["dialogue_id"] == "d1"
    assert deferred["detail"] == f"service error from {url}/correct: overloaded"
    assert [p["error"] for p in deferred["provenance"]] == [deferred["detail"]]


@pytest.mark.parametrize("op", sorted(_CALLS))
@pytest.mark.parametrize("body, length, detail", [
    (b'{"ok": true, "result": "\xff"}', None, None),
    (b'{"ok": true', 100, None),
    (b"[" * 200_000, None, "nested too deeply"),
], ids=["not-utf8", "truncated", "nested"])
def test_unreadable_response_is_a_client_error(op, body, length, detail):
    with _serve(_FixedHandler, body=body, length=length) as url:
        with pytest.raises(ClientError, match=re.escape(f"request to {url}/{op} failed")) as exc:
            _CALLS[op](url)
    if detail is not None:
        assert str(exc.value) == f"request to {url}/{op} failed: {detail}"


@pytest.mark.parametrize("url", ["", "notaurl", "http://例.invalid", "http://[::1"])
def test_clean_refuses_a_service_url_no_request_can_go_to(tmp_path, monkeypatch, capsys, url):
    """A --config URL urlopen cannot send to is a usage error before any
    record runs; before, the first service call raised out of run."""
    monkeypatch.chdir(tmp_path)
    write_corpus([flagged("logic_contradiction_correctable", n_turns=4)], "corpus.jsonl")
    with open("http.json", "w", encoding="utf-8") as fh:
        json.dump({"corrector_url": url, "synth_url": "http://127.0.0.1:1"}, fh)
    assert run(["clean", "--corpus", "corpus.jsonl", "--client", "http", "--config",
                "http.json", "--out", "c.jsonl"]) == 2
    assert capsys.readouterr().err == (
        f"forge: error: --config field 'corrector_url' must be an http:// or https:// URL "
        f"in ASCII, got {url!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "http.json"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_clean_cli_defers_dialogues_on_malformed_responses(tmp_path, monkeypatch, jobs):
    monkeypatch.chdir(tmp_path)
    dialogues = [flagged(kind, n_turns=4) for kind in
                 (None, "logic_contradiction_correctable", "missing_context")]
    for k, d in enumerate(dialogues):
        d.id = f"d{k}"
    write_corpus(dialogues, "corpus.jsonl")
    with _serve(_FixedHandler, body=b'{"ok": true, "result": 5}') as url:
        with open("http.json", "w", encoding="utf-8") as fh:
            json.dump({"corrector_url": url, "synth_url": url}, fh)
        assert run(["clean", "--corpus", "corpus.jsonl", "--client", "http", "--config",
                    "http.json", "--out", "c.jsonl", "--jobs", jobs, "--retries", "2"]) == 0
    deferred = [json.loads(line) for line in
                (tmp_path / "c.jsonl.deferred.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(o["dialogue_id"], o["status"]) for o in deferred] == [("d1", "deferred"),
                                                                  ("d2", "deferred")]
    assert all("malformed response" in o["detail"] for o in deferred)
    attempts = [p["attempt"] for o in deferred for p in o["provenance"]]
    assert attempts == [1, 2, 1, 2]  # each failure was retried
    assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "corpus.jsonl").read_bytes()
