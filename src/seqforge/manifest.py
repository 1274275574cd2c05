"""Canonical JSON and the reproducibility manifest of mutating commands.

Every JSON line seqforge emits is encoded here: ``canonical_json`` is the one
compact encoding (no ASCII escapes, no spaces) of corpus lines, thinker and
talker sequences, cleaning outcomes and manifests, and ``json_digest`` the
one key-sorted sha256 of a JSON value (config hashes, cleaning provenance).
Corpus lines, thinker lines and cleaning outcomes are written straight to
text with fixed-key templates (``corpus.serialize_dialogue``,
``thinker.interleave_dialogue``, ``cleaning.outcome_line``), each string
through ``json_string`` and each number through ``json_number``, the pieces
canonical_json itself writes with, so each line equals canonical_json of its
dict form; ``talker.assemble`` renders its token text from tables.

A manifest captures the command line, master seed, the config and its
digest, content digests of every input, tool version and output counts. It
deliberately contains no timestamps, so identical inputs, seed and version
produce byte-identical manifests.
"""
import json
import math
import os
import stat

from seqforge import __version__

# Built once: json.dumps with these keywords would build an encoder per call.
canonical_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
_sorted_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode
# The string encoder canonical_json uses (ensure_ascii=False): a str as its
# JSON text, quotes included.
json_string = json.encoder.encode_basestring


def json_number(x) -> str:
    """x as canonical_json writes it: a finite float by float.__repr__."""
    return float.__repr__(x) if type(x) is float and math.isfinite(x) else canonical_json(x)


# Token-id arrays travel as their JSON text ("12,0,4095"). A value to digest
# that holds some (a client response in cleaning provenance) has IDS_MARK in
# each array's place, and json_digest splices the texts in.
IDS_MARK = "\x00"


def _splice_ids(encoded: str, ids: list[str]) -> str:
    """encoded with the value of each "token_ids":IDS_MARK member replaced by
    the next text of ids as an array, in document order.

    Exact where every object key is the program's own: a string's encoding
    never holds '":"' (a quote inside it is escaped), so each match is a
    member named token_ids whose value is the mark.
    """
    pieces = encoded.split('"token_ids":"\\u0000"')
    return pieces[0] + "".join(f'"token_ids":[{text}]{piece}'
                               for text, piece in zip(ids, pieces[1:]))


def json_digest(value, ids: list[str] = ()) -> str:
    """sha256 hex digest of value's canonical JSON with keys sorted; ids are
    the texts of its "token_ids" marks, as for _splice_ids."""
    # hashlib (~5 ms to import) is imported where used: validate loads this
    # module through the corpus model for canonical_json alone.
    import hashlib

    return hashlib.sha256(_splice_ids(_sorted_json(value), ids).encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    """sha256 hex digest of the file at path, read line by line by reporting.raw_lines.

    A digested input is read again, so a path that is not a regular file (a
    pipe, whose second read gets nothing) raises OSError naming it. A line
    that is not UTF-8 raises NotUtf8Error naming it, so a corpus digested
    before it is mapped fails before any record runs.
    """
    import hashlib

    from seqforge.reporting import raw_lines

    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(f"{path} is not a regular file: it is digested, then read again")
    h = hashlib.sha256()
    for raw, _ in raw_lines(path):
        h.update(raw)
    return h.hexdigest()


def manifest_line(command: str, master_seed: int | None, config: dict,
                  input_digests: dict[str, str], counts: dict[str, int]) -> str:
    """The manifest as one canonical JSON line."""
    return canonical_json({
        "command": command,
        "master_seed": master_seed,
        "config": config,
        "config_hash": json_digest(config),
        "input_digests": input_digests,
        "counts": counts,
        "tool_version": __version__,
    })
