"""Reproducibility manifests for mutating commands.

A manifest captures the command line, master seed, a hash of the canonical
config serialization, content digests of every input, tool version and
output counts. It deliberately contains no timestamps, so identical inputs,
seed and version produce byte-identical manifests.
"""
import hashlib
import json
from dataclasses import dataclass, field

from seqforge import __version__


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    master_seed: int | None
    config: dict
    input_digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    tool_version: str = __version__

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "master_seed": self.master_seed,
            "config": self.config,
            "config_hash": self.config_hash,
            "input_digests": self.input_digests,
            "counts": self.counts,
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, separators=(",", ":"))
