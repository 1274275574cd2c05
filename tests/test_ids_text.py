"""Token-id arrays in every form a corpus line can hold them.

Frozen digests of clean, build-thinker and every build-talker mode on corpora
whose lines hold ids 0 and 10**30, an empty id array, one line with a
non-compact array among compact ones, and token_ids keys inside unknown
fields. They do not move unless the output format changes on purpose.

corpus.parse_line cuts compact id arrays out of a line as text and leaves
every other line to the full json.loads path: a seeded differential test
holds the two paths to the same dialogue or reject text, and a guard runs
every corpus command with the decoded views of the ids patched to raise.
"""
import hashlib
import random
import re

import pytest

from seqforge import corpus, thinker
from seqforge.cli import run
from seqforge.corpus import serialize_dialogue

import synthetic
from test_digests import EXPECTED, _digests

FLAG_KINDS = (None, "logic_contradiction_correctable", "missing_context",
              "logic_contradiction_severe")


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _body_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read().split(b"\n", 1)[1]).hexdigest()


def _spaced_first_array(line: str) -> str:
    """line with its first token-id array written as [a, b, ...]."""
    start = line.index('"token_ids":[') + len('"token_ids":[')
    end = line.index("]", start)
    return line[:start] + line[start:end].replace(",", ", ") + line[end:]


def _write(dialogues, path) -> None:
    """dialogues as corpus lines, edited so the ids take every form."""
    first, second = dialogues[0], dialogues[1]
    for t in first.turns:
        if t.audio is not None:
            t.audio.token_ids = [0, 10 ** 30, *t.audio.token_ids[2:]]
    empty = second.turns[0]
    empty.audio.token_ids, empty.audio.duration_s = [], 0.0
    for span in empty.alignment:
        span.audio_range = (0, 0)
    lines = [serialize_dialogue(d) for d in dialogues]
    lines[2] = _spaced_first_array(lines[2])
    # token_ids inside an unknown dialogue field and an unknown turn field
    lines[3] = '{"extra":{"token_ids":[7,8,9]},' + lines[3][1:]
    lines[4] = lines[4].replace('{"role":', '{"note":{"token_ids":[1]},"role":', 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _clean_corpus(path) -> None:
    kinds = [FLAG_KINDS[k % len(FLAG_KINDS)] for k in range(12)]
    dialogues = [synthetic.synth_dialogue(51, k, n_turns=4, segments_per_assistant=3,
                                          speaker_pool=2, flag_kind=kind,
                                          truncate_first_turn=kind == "missing_context")
                 for k, kind in enumerate(kinds)]
    _write(dialogues, path)


def _talker_corpus(mode: str, path) -> None:
    if mode == "dialogue":
        dialogues = synthetic.synth_corpus(12, 52, n_turns=4, speaker_pool=2)
    else:
        dialogues = synthetic.synth_corpus(10, 53, n_turns=3 if mode == "long_text" else 1)
        for k, d in enumerate(dialogues):
            for t in d.turns:
                t.speaker_id = f"voice{k % 3}"
    for t in dialogues[-1].turns:  # a voice found nowhere else: a skipped dialogue
        t.speaker_id = f"solo_{t.role}"
    _write(dialogues, path)


CLEAN_EXPECTED = {
    "cleaned.jsonl":
        "02398394cdffc6b92dbb4f35b67aaf9b694c7081dbe95659b6ed03fac87ee56d",
    "cleaned.jsonl.outcomes.jsonl":
        "f0bbeef508b1fe85095d4b56190a77121808b6ddcc8ea811c126456aa444bc53",
    "thinker.jsonl":
        "068aa40d57728a780aec2534c5225000bdd9d98076c7fa523956f1435b60ae1b",
}

TALKER_EXPECTED = {
    "dialogue": "48707f5cd512e8a9e2c9b9af3c5f02d5b089a88fa6dd94c8bc17d01631ec9010",
    "long_text": "24b75ad82feb9b3692c184d88bd1f1e0c26d8607ce67d17be992391f6b5f531f",
    "standard_sentence": "871e4c49dfae6b6dab5a453e8e49d7f0bd52d18ef48db173208213f839c9d045",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_clean_and_thinker_outputs_of_every_id_form_are_frozen(tmp_path, monkeypatch, capsys,
                                                               jobs):
    monkeypatch.chdir(tmp_path)
    _clean_corpus("corpus.jsonl")
    assert run(["clean", "--corpus", "corpus.jsonl", "--client", "mock",
                "--out", "cleaned.jsonl", "--jobs", jobs]) == 0
    assert run(["build-thinker", "--corpus", "cleaned.jsonl", "--seed", "4",
                "--p-user", "0.7", "--p-assistant", "0.7",
                "--out", "thinker.jsonl", "--jobs", jobs]) == 0
    assert "(0 deferred)" in capsys.readouterr().out
    assert {"cleaned.jsonl": _sha("cleaned.jsonl"),
            "cleaned.jsonl.outcomes.jsonl": _sha("cleaned.jsonl.outcomes.jsonl"),
            "thinker.jsonl": _body_sha("thinker.jsonl")} == CLEAN_EXPECTED


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("mode", list(TALKER_EXPECTED))
def test_talker_bodies_of_every_id_form_are_frozen(tmp_path, monkeypatch, capsys, mode, jobs):
    monkeypatch.chdir(tmp_path)
    _talker_corpus(mode, "corpus.jsonl")
    assert run(["build-talker", "--corpus", "corpus.jsonl", "--seed", "6", "--mode", mode,
                "--ratio", "3:4", "--out", "talker.jsonl", "--jobs", jobs]) == 0
    assert "(1 skipped)" in capsys.readouterr().out
    assert _body_sha("talker.jsonl") == TALKER_EXPECTED[mode]


# --------------------------------------------------------------------------
# the compact cut against the full path
# --------------------------------------------------------------------------

def _outcome(item) -> str:
    return item.reason if isinstance(item, corpus.Reject) else corpus.serialize_dialogue(item)


def _array_spans(line: str) -> list[tuple[int, int]]:
    """[start, end) of the text inside each "token_ids":[...] of line."""
    spans, at = [], line.find('"token_ids":[')
    while at >= 0:
        start = at + len('"token_ids":[')
        spans.append((start, line.index("]", start)))
        at = line.find('"token_ids":[', start)
    return spans


def _on_ids(edit):
    """A mutation that replaces one id array's text with edit(its ids)."""
    def mutate(rng, line):
        start, end = rng.choice(_array_spans(line))
        ids = line[start:end].split(",")
        return line[:start] + edit(ids, rng) + line[end:]
    return mutate


def _swap_id(value: str):
    def edit(ids, rng):
        ids[rng.randrange(len(ids))] = value
        return ",".join(ids)
    return _on_ids(edit)


def _at_number(value: str):
    """Put value in place of a random number outside the id arrays."""
    def mutate(rng, line):
        sites = [m.span() for m in re.finditer(r'(?<=[:\[,])-?\d+(?:\.\d+)?(?:e[+-]?\d+)?', line)
                 if not any(s <= m.start() < e for s, e in _array_spans(line))]
        start, end = rng.choice(sites)
        return line[:start] + value + line[end:]
    return mutate


def _in_text(value: str):
    def mutate(rng, line):
        at = line.index('"text":"') + len('"text":"')
        return line[:at] + value + line[at:]
    return mutate


def _escaped_key(rng, line):
    """A key holding a quote and token_ids, after a run of 0 to 4 backslashes."""
    run = "\\" * rng.randrange(5)
    return '{"x' + run + '"token_ids":[1,2],' + line[1:]


def _duplicate_key(rng, line):
    start, end = rng.choice(_array_spans(line))
    second = rng.choice(["9,9", "", "1, 2", "01", "true"])
    return line[:end] + '],"token_ids":[' + second + line[end:]


# name -> mutation of a compact corpus line
DIFFERENTIAL_MUTATIONS = {
    "escaped-key": _escaped_key,
    "duplicate-key": _duplicate_key,
    "text-with-key": _in_text('\\"token_ids\\":[1,2]'),
    "text-with-backslashes": _in_text('\\\\\\\\\\"token_ids\\":[3],'),
    "text-nan": _in_text("NaN"),
    "id-nan": _swap_id("NaN"),
    "id-infinity": _swap_id("Infinity"),
    "number-nan": _at_number("NaN"),
    "number-infinity": _at_number("Infinity"),
    "number-minus-infinity": _at_number("-Infinity"),
    "extra-infinity": lambda rng, line: '{"extra":[Infinity],' + line[1:],
    "leading-zero": _on_ids(lambda ids, rng: ",".join(ids[:-1] + ["0" + ids[-1]])),
    "first-leading-zero": _on_ids(lambda ids, rng: "00," + ",".join(ids)),
    "zero": _swap_id("0"),
    "big": _swap_id(str(10 ** 30)),
    "too-many-digits": _swap_id("9" * 4301),
    "minus-one": _swap_id("-1"),
    "float": _swap_id("1.0"),
    "exponent": _swap_id("1e2"),
    "true": _swap_id("true"),
    "null": _swap_id("null"),
    "nested": _swap_id("[1]"),
    "empty-element": _swap_id(""),
    "leading-comma": _on_ids(lambda ids, rng: "," + ",".join(ids)),
    "trailing-comma": _on_ids(lambda ids, rng: ",".join(ids) + ","),
    "empty-array": _on_ids(lambda ids, rng: ""),
    "space-after-comma": _on_ids(lambda ids, rng: ", ".join(ids)),
    "space-inside": _on_ids(lambda ids, rng: " " + ",".join(ids) + " "),
    "space-before-array": lambda rng, line: line.replace('"token_ids":[', '"token_ids": [', 1),
    "unclosed": lambda rng, line: line[:line.rindex("]")],
    "extra-bracket": _on_ids(lambda ids, rng: ",".join(ids) + "]"),
    "unknown-field": lambda rng, line: '{"extra":{"token_ids":[5,6]},' + line[1:],
    "unchanged": lambda rng, line: line,
}


def _differential_cases(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    dialogues = synthetic.synth_corpus(12, seed, n_turns=3, with_captions=True,
                                       flag_kind="logic_contradiction_severe")
    lines = [corpus.serialize_dialogue(d) for d in dialogues]
    cases = []
    for name, mutate in DIFFERENTIAL_MUTATIONS.items():
        for _ in range(8):
            line = rng.choice(lines)
            for _ in range(rng.choice((1, 1, 2))):  # some lines take two mutations
                line = mutate(rng, line)
            cases.append((name, line))
    return cases


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_compact_cut_agrees_with_the_full_path(seed):
    cut = declined = 0
    for name, line in _differential_cases(seed):
        assert _outcome(corpus.parse_line(1, line)) == _outcome(corpus._parse_full(1, line)), \
            (name, line)
        if corpus._decode_compact(line) is None:
            declined += 1
        else:
            cut += 1
    assert cut > 40 and declined > 100, (cut, declined)


@pytest.mark.parametrize("line", [
    '{"x\\"token_ids":[1],"id":"d"}',
    '{"id":"d","turns":[],"language":"en","source":"podcast","t":"NaN","token_ids":[1]}',
    '{"token_ids":[1],"token_ids":[2, 3]}',
])
def test_the_compact_cut_declines(line):
    assert corpus._decode_compact(line) is None


def test_the_compact_cut_keeps_each_array_as_text():
    line = ('{"a":{"token_ids":[0,10,1000000000000000000000000000000]},'
            '"b":[{"token_ids":[7]},{"token_ids":[1],"token_ids":[2,3]}]}')
    assert corpus._decode_compact(line) == {
        "a": {"token_ids": "0,10,1000000000000000000000000000000"},
        "b": [{"token_ids": "7"}, {"token_ids": "2,3"}]}


# --------------------------------------------------------------------------
# the commands never decode token ids
# --------------------------------------------------------------------------

def _no_decoding(_):
    raise AssertionError("token ids decoded")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_commands_never_decode_token_ids(tmp_path, monkeypatch, capsys, jobs):
    """Every command keeps ids as text: with the decoded views patched to raise,
    each still succeeds and gives the frozen bytes."""
    monkeypatch.chdir(tmp_path)
    for mode in TALKER_EXPECTED:  # written first: the edits read token_ids
        _talker_corpus(mode, f"{mode}.jsonl")
    monkeypatch.setattr(corpus.AudioTokenSpan, "token_ids", property(_no_decoding))
    monkeypatch.setattr(thinker.Element, "tokens", property(_no_decoding))
    assert _digests(jobs) == EXPECTED
    assert run(["validate", "--corpus", "corpus.jsonl"]) == 0
    assert run(["validate", "--corpus", "cleaned.jsonl"]) == 0
    for mode in TALKER_EXPECTED:
        assert run(["build-talker", "--corpus", f"{mode}.jsonl", "--seed", "6", "--mode", mode,
                    "--ratio", "3:4", "--out", "talker.jsonl", "--jobs", jobs]) == 0
        assert _body_sha("talker.jsonl") == TALKER_EXPECTED[mode]
