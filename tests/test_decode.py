"""Every JSON input from outside the program is decoded by the same rules.

A corpus line, the --config, --masks, --stats and --registry side inputs and
the cleaning services' responses all get one nesting cap (MAX_DEPTH), one
refusal of lone surrogate escapes and one refusal of integers too long to
convert, each reported in the words that input uses for a decode error.
"""
import ast
import json
from pathlib import Path

import pytest

import seqforge
from seqforge import corpus
from seqforge.cleaning import ClientError, HttpCorrectorClient
from seqforge.cli import run

from conftest import make_dialogue, write_corpus
from test_cleaning import _FixedHandler, _serve, flagged

_LONG = ("Exceeds the limit (4300 digits) for integer string conversion: value has 4301 "
         "digits; use sys.set_int_max_str_digits() to increase the limit")

# Each input as a valid document with a string slot <S> and a number slot <N>.
_DOCUMENTS = {
    "corpus": '{"extra":["x<S>",<N>],' + corpus.serialize_dialogue(make_dialogue("d"))[1:],
    "config": '{"corrector_url": "http://127.0.0.1:1/<S>", "synth_url": "http://127.0.0.1:1", '
              '"timeout_s": <N>}',
    "masks": '{"dialogue_id": "d<S>", "masked_spans": [[0, [0, <N>]]]}',
    "stats": '{"speech<S>": {"amount": <N>, "unit": "hours"}}',
    "registry": '{"t": {"n": <N>, "slots": [{"alternatives": ["a<S>"]}]}}',
    "http": '{"ok": true, "n": <N>, "result": "fixed <S>"}',
}


def _text(input_name: str, case: str) -> str:
    if case.endswith("depth"):  # past MAX_DEPTH brackets in all, so the exact scan runs
        depth = 512 + (case == "past-max-depth")
        return "[[]," + "[" * (depth - 1) + "]" * depth
    s, n = {"plain": ("", "1"), "long-int": ("", "9" * 4301),
            "lone-surrogate": ("\\ud800", "1")}[case]
    return _DOCUMENTS[input_name].replace("<S>", s).replace("<N>", n)


# The side inputs' commands; each reads side.json, and clean's --config c.json.
_COMMANDS = {
    "config": ["clean", "--client", "http", "--config", "c.json", "--corpus", "corpus.jsonl",
               "--out", "o.jsonl"],
    "masks": ["build-thinker", "--seed", "1", "--masks", "side.json", "--corpus",
              "corpus.jsonl", "--out", "o.jsonl"],
    "stats": ["plan", "budget", "--stats", "side.json"],
    "registry": ["templates", "expand", "--task", "t", "--registry", "side.json"],
}


def _answer(input_name: str, text: str, tmp_path, monkeypatch, capsys):
    """What the input's reader says about text: a corpus line's reject
    reason, a side input's (exit code, stderr), or a service's ClientError."""
    if input_name == "corpus":
        parsed = corpus.parse_line(1, text)
        return parsed.reason if isinstance(parsed, corpus.Reject) else parsed
    if input_name == "http":
        with _serve(_FixedHandler, body=text.encode("utf-8")) as url:
            try:
                return HttpCorrectorClient(url).correct("hi", make_dialogue("ctx"))
            except ClientError as exc:
                return str(exc).replace(url, "URL")
    monkeypatch.chdir(tmp_path)
    write_corpus([make_dialogue("d")], "corpus.jsonl")
    (tmp_path / ("c.json" if input_name == "config" else "side.json")).write_text(
        text, encoding="utf-8")
    code = run(_COMMANDS[input_name])
    return code, capsys.readouterr().err


def _usage(flag: str, path: str, what: str):
    return 2, f"forge: error: {flag} {path}{what}\n"


_CONTRACT = {
    ("corpus", "long-int"): f"invalid JSON: {_LONG}",
    ("corpus", "lone-surrogate"): "invalid JSON: unpaired surrogate escape",
    ("corpus", "max-depth"): "dialogue: expected object",
    ("corpus", "past-max-depth"): "invalid JSON: nested too deeply",
    ("config", "long-int"): _usage("--config", "c.json", f" is not valid JSON: {_LONG}"),
    ("config", "lone-surrogate"): _usage("--config", "c.json",
                                         " is not valid JSON: unpaired surrogate escape"),
    ("config", "max-depth"): _usage("--config", "c.json", " must hold a JSON object"),
    ("config", "past-max-depth"): _usage("--config", "c.json",
                                         " is not valid JSON: nested too deeply"),
    ("masks", "long-int"): _usage("--masks", "side.json", f" is not valid JSON: {_LONG}"),
    ("masks", "lone-surrogate"): _usage("--masks", "side.json",
                                        " is not valid JSON: unpaired surrogate escape"),
    ("masks", "max-depth"): _usage("--masks", "side.json",
                                   ": line 1: expected a cleaning outcome object"),
    ("masks", "past-max-depth"): _usage("--masks", "side.json",
                                        " is not valid JSON: nested too deeply"),
    ("stats", "long-int"): _usage("--stats", "side.json", f" is not valid JSON: {_LONG}"),
    ("stats", "lone-surrogate"): _usage("--stats", "side.json",
                                        " is not valid JSON: unpaired surrogate escape"),
    ("stats", "max-depth"): _usage("--stats", "side.json",
                                   ": expected a JSON object of budget stats"),
    ("stats", "past-max-depth"): _usage("--stats", "side.json",
                                        " is not valid JSON: nested too deeply"),
    ("registry", "long-int"): _usage("--registry", "side.json", f" is not valid JSON: {_LONG}"),
    ("registry", "lone-surrogate"): _usage("--registry", "side.json",
                                           " is not valid JSON: unpaired surrogate escape"),
    ("registry", "max-depth"): _usage("--registry", "side.json",
                                      ": expected a JSON object of tasks"),
    ("registry", "past-max-depth"): _usage("--registry", "side.json",
                                           " is not valid JSON: nested too deeply"),
    ("http", "long-int"): f"request to URL/correct failed: {_LONG}",
    ("http", "lone-surrogate"): "request to URL/correct failed: unpaired surrogate escape",
    ("http", "max-depth"): "malformed response from URL/correct: response: expected object",
    ("http", "past-max-depth"): "request to URL/correct failed: nested too deeply",
}


@pytest.mark.parametrize("input_name, case", sorted(_CONTRACT),
                         ids=[f"{i}-{c}" for i, c in sorted(_CONTRACT)])
def test_every_outside_input_gets_the_same_decode_rules(input_name, case, tmp_path,
                                                        monkeypatch, capsys):
    """A 4,301-digit integer and a lone surrogate escape are refused before
    any shape check; text nested MAX_DEPTH deep decodes and gets the shape
    check's answer, and one level more is refused."""
    assert corpus.MAX_DEPTH == 512  # as README states
    answer = _answer(input_name, _text(input_name, case), tmp_path, monkeypatch, capsys)
    assert answer == _CONTRACT[input_name, case]


@pytest.mark.parametrize("input_name", sorted(_DOCUMENTS))
def test_each_contract_document_is_valid_without_its_hostile_value(input_name, tmp_path,
                                                                   monkeypatch, capsys):
    """So in the contract, the decoder refuses the hostile value, not the document."""
    answer = _answer(input_name, _text(input_name, "plain"), tmp_path, monkeypatch, capsys)
    if input_name == "corpus":
        assert answer == make_dialogue("d")
    elif input_name == "http":
        assert answer == "fixed "
    else:
        assert answer[0] in (0, 1) and answer[1] == ""


def test_a_response_no_output_can_hold_defers_the_dialogue(tmp_path, monkeypatch):
    """A corrector's answer holding a lone surrogate escape defers the
    dialogue; before, the chunk write raised UnicodeEncodeError out of run."""
    monkeypatch.chdir(tmp_path)
    d = flagged("logic_contradiction_correctable", n_turns=4)
    write_corpus([d], "corpus.jsonl")
    with _serve(_FixedHandler, body=b'{"ok": true, "result": "fixed \\ud800"}') as url:
        Path("http.json").write_text(json.dumps({"corrector_url": url, "synth_url": url}),
                                     encoding="utf-8")
        assert run(["clean", "--corpus", "corpus.jsonl", "--client", "http", "--config",
                    "http.json", "--out", "c.jsonl", "--retries", "1"]) == 0
    [deferred] = map(json.loads, Path("c.jsonl.deferred.jsonl").read_text(
        encoding="utf-8").splitlines())
    assert (deferred["dialogue_id"], deferred["status"]) == (d.id, "deferred")
    assert deferred["detail"] == f"request to {url}/correct failed: unpaired surrogate escape"


# --------------------------------------------------------------------------
# one decoder: an AST check over src/seqforge
# --------------------------------------------------------------------------

# Where json may decode outside seqforge.reporting: text the program wrote
# itself (packaged data, or a field a parse or a renderer already checked),
# and the corpus's compact decoder, which reads only lines reporting.refusal
# passed.
_OWN_TEXT = {
    ("corpus.AudioTokenSpan.token_ids", "json.loads"),
    ("corpus._COMPACT_DECODER", "json.JSONDecoder"),
    ("thinker.Element.tokens", "json.loads"),
    ("thinker.TrainingSequence.elements", "json.loads"),
    ("thinker.TrainingSequence.manifest", "json.loads"),
    ("talker.TalkerSequence.tokens", "json.loads"),
    ("talker.load_special_tokens", "json.loads"),
    ("captions._vocabularies", "json.loads"),
}
_DECODER_NAMES = ("load", "loads", "JSONDecoder", "decoder", "scanner")


def _json_decodes(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(module.scope, name) of each use of json's decoder in tree, and
    (module:line, "except RecursionError") of each such handler. scope is
    the enclosing Class.function, or the names a module-level statement
    assigns. An import that renames json, or names another module json,
    counts as a use, since the check goes by the name json."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif scope == module and isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                inner = ".".join([module] + [t.id for t in targets if isinstance(t, ast.Name)])
            if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                    and child.value.id == "json" and child.attr in _DECODER_NAMES):
                found.append((inner, f"json.{child.attr}"))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("json"):
                found.extend((inner, f"{child.module}.{alias.name}") for alias in child.names)
            elif isinstance(child, ast.Import):
                found.extend((inner, alias.name) for alias in child.names
                             if alias.name.startswith("json.") or alias.asname == "json"
                             or alias.name == "json" and alias.asname)
            elif isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                    isinstance(n, ast.Name) and n.id == "RecursionError"
                    for n in ast.walk(child.type)):
                found.append((f"{module}:{child.lineno}", "except RecursionError"))
            visit(child, inner)

    visit(tree, module)
    return found


def test_one_module_decodes_outside_json():
    """Only seqforge.reporting decodes JSON from outside the program: no
    other module calls json.load, json.loads appears only where the program
    reads its own text, and no module catches RecursionError, which the
    nesting cap makes unreachable."""
    found = []
    for path in sorted(Path(seqforge.__file__).parent.rglob("*.py")):
        found += _json_decodes(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    offenders = [use for use in found
                 if use not in _OWN_TEXT and use[0].partition(".")[0] != "reporting"]
    assert offenders == []
    assert _OWN_TEXT <= set(found)  # no stale entry hides a renamed function


@pytest.mark.parametrize("source, use", [
    ("def f(fh):\n    return json.load(fh)", ("cli.f", "json.load")),
    ("class C:\n    def f(self):\n        return json.loads(self.s)", ("cli.C.f", "json.loads")),
    ("from json import loads", ("cli", "json.loads")),
    ("import json.decoder", ("cli", "json.decoder")),
    ("import json as j", ("cli", "json")),
    ("import simplejson as json", ("cli", "simplejson")),
    ("DECODE = json.JSONDecoder().decode", ("cli.DECODE", "json.JSONDecoder")),
    ("try:\n    pass\nexcept (ValueError, RecursionError):\n    pass",
     ("cli:3", "except RecursionError")),
])
def test_the_decoder_check_sees_each_form(source, use):
    assert _json_decodes("cli", ast.parse(source)) == [use]
