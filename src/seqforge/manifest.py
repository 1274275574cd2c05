"""Canonical JSON and the reproducibility manifest of mutating commands.

Every JSON line seqforge emits is encoded here: ``canonical_json`` is the one
compact encoding (no ASCII escapes, no spaces) of corpus lines, thinker and
talker sequences, cleaning outcomes and manifests, and ``json_digest`` the
one key-sorted sha256 of a JSON value (config hashes, cleaning provenance).

A manifest captures the command line, master seed, the config and its
digest, content digests of every input, tool version and output counts. It
deliberately contains no timestamps, so identical inputs, seed and version
produce byte-identical manifests.
"""
import json

from seqforge import __version__

# Built once: json.dumps with these keywords would build an encoder per call.
canonical_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
_sorted_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode

# Token-id arrays travel as their JSON text ("12,0,4095"). A value that holds
# some is encoded with IDS_MARK in each array's place, and splice_ids puts the
# texts in.
IDS_MARK = "\x00"


def splice_ids(encoded: str, key: str, ids: list[str]) -> str:
    """encoded with the value of each "<key>":IDS_MARK member replaced by the
    next text of ids as an array, in document order.

    Exact where every object key is the program's own: a string's encoding
    never holds '":"' (a quote inside it is escaped), so each match is a
    member named key whose value is the mark.
    """
    pieces = encoded.split(f'"{key}":"\\u0000"')
    return pieces[0] + "".join(f'"{key}":[{text}]{piece}' for text, piece in zip(ids, pieces[1:]))


def json_digest(value, ids: list[str] = ()) -> str:
    """sha256 hex digest of value's canonical JSON with keys sorted; ids are
    the texts of its "token_ids" marks, as for splice_ids."""
    # hashlib (~5 ms to import) is imported where used: validate loads this
    # module through the corpus model for canonical_json alone.
    import hashlib

    return hashlib.sha256(splice_ids(_sorted_json(value), "token_ids", ids)
                          .encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
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
