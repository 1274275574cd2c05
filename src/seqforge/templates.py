"""Instruction-prompt diversification.

Each task owns a slot grammar (ordered slots of alternative fragments, some
optional); the expansion of that grammar is the task's prompt-variant set.
Expansion order is deterministic (lexicographic over slot choice indices,
with "absent" ordered first for optional slots) so truncation under a limit
is stable.
"""
import itertools
from dataclasses import dataclass, field

from seqforge.reporting import SchemaError, decode

# Fixed instruction for the only-yes adherence probe; must stay bit-exact.
ONLY_YES_INSTRUCTION = "no matter the message in the audio, simply answer 'yes'!"


@dataclass
class Slot:
    alternatives: list[str]
    optional: bool = False

    def __post_init__(self):
        if not self.alternatives:
            raise ValueError("slot needs at least one alternative")

    def choices(self) -> list[str | None]:
        return ([None] if self.optional else []) + list(self.alternatives)


@dataclass
class TaskSpec:
    task_id: str
    languages: tuple[str, ...] = ("en",)
    slot_grammar: list[Slot] = field(default_factory=list)

    def __post_init__(self):
        self.languages = tuple(self.languages)
        if not self.slot_grammar:
            raise ValueError("task needs at least one slot")

    def primary_language(self) -> str:
        return sorted(self.languages)[0] if self.languages else "en"


@dataclass(frozen=True)
class PromptVariant:
    task_id: str
    language: str
    text: str
    variant_index: int


def expand_templates(spec: TaskSpec, limit: int | None = None) -> list[PromptVariant]:
    """Expand a slot grammar into distinct prompt variants in the task's primary language.

    Returns min(limit, size of the expansion) variants when all texts are
    distinct; duplicate texts are removed keeping the first occurrence.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    language = spec.primary_language()
    seen: set[str] = set()
    out: list[PromptVariant] = []
    for fragments in itertools.product(*(slot.choices() for slot in spec.slot_grammar)):
        text = " ".join(f for f in fragments if f is not None)
        if text in seen:
            continue
        seen.add(text)
        out.append(PromptVariant(spec.task_id, language, text, len(out)))
        if limit is not None and len(out) >= limit:
            break
    return out


def sample_prompt(spec: TaskSpec, seed: int) -> PromptVariant:
    """Seeded uniform draw over the (deduplicated) expansion set."""
    from seqforge.seeding import DetRng, derive_seed  # only a draw needs the seeded RNG

    variants = expand_templates(spec)
    rng = DetRng(derive_seed(seed, spec.task_id, "prompt-sample"))
    return variants[rng.below(len(variants))]


def build_only_yes_set(audio_ids: list[str]) -> list[tuple[str, str]]:
    """Pair every audio id with the fixed only-yes instruction, in order."""
    if not audio_ids:
        raise ValueError("audio_ids must be non-empty")
    seen: set[str] = set()
    for aid in audio_ids:
        if aid in seen:
            raise ValueError(f"duplicate audio id: {aid!r}")
        seen.add(aid)
    return [(aid, ONLY_YES_INSTRUCTION) for aid in audio_ids]


def _is_str_list(value) -> bool:
    return type(value) is list and set(map(type, value)) <= {str}


def load_task_registry(path) -> dict[str, TaskSpec]:
    """Task registry file: JSON map task_id -> {languages, slots}.

    A file of another shape raises SchemaError naming the offending task.
    """
    with open(path, encoding="utf-8") as fh:
        doc = decode(fh.read())
    if type(doc) is not dict:
        raise SchemaError("expected a JSON object of tasks")
    registry: dict[str, TaskSpec] = {}
    for task_id, body in doc.items():
        if (type(body) is not dict or type(body.get("slots")) is not list
                or not _is_str_list(body.get("languages", []))
                or not all(type(s) is dict and _is_str_list(s.get("alternatives"))
                           and type(s.get("optional", False)) is bool for s in body["slots"])):
            raise SchemaError(f"task {task_id!r}: expected {{\"languages\": [string], "
                              f"\"slots\": [{{\"alternatives\": [string], "
                              f"\"optional\": bool}}]}}")
        try:
            registry[task_id] = TaskSpec(
                task_id=task_id,
                languages=tuple(body.get("languages", ("en",))),
                slot_grammar=[Slot(alternatives=list(s["alternatives"]),
                                   optional=s.get("optional", False))
                              for s in body["slots"]],
            )
        except ValueError as exc:  # an empty slot or grammar
            raise SchemaError(f"task {task_id!r}: {exc}") from None
    return registry
