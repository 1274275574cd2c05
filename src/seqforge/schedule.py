"""Multi-stage training schedule as an inspectable state machine.

Stages declare phases (step-range fractions with trainable parameter groups
and learning rates) plus declared data budgets. Budgets carry explicit units
(tokens, hours, samples); declared figures are never silently recomputed —
``budget_check`` derives token counts from corpus statistics and reports the
relative error against the declared constants instead.

Phase boundaries use exact rational arithmetic: the boundary after a
cumulative fraction f is floor(f * total_steps), so "first 30% of steps"
means steps 1..floor(0.3 * total). Fields with no established value
(late-stage learning rates, step counts) stay None rather than being
fabricated.
"""
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from seqforge.reporting import SchemaError

PARAM_GROUPS = ("audio_encoder", "audio_adapter", "thinker", "talker")

STAGE_IDS = (
    "s1_general_audio",
    "s2_alignment_cpt",
    "s3_instruction_ft",
    "post_training",
    "talker_training",
    "end_to_end",
)

STAGE_ALIASES = {"s1": "s1_general_audio", "s2": "s2_alignment_cpt", "s3": "s3_instruction_ft"}

BUDGET_UNITS = ("tokens", "hours", "samples")

BUDGET_TOLERANCE = 0.02


@dataclass(frozen=True)
class Budget:
    amount: float
    unit: str


@dataclass(frozen=True)
class Phase:
    fraction: Fraction
    trainable: frozenset[str]
    lr: float | None


@dataclass
class StageSpec:
    stage_id: str
    phases: list[Phase]
    total_steps: int = 1000
    token_budget: dict[str, Budget] = field(default_factory=dict)
    sample_budget: dict[str, Budget] = field(default_factory=dict)
    data_hours: dict[str, float] = field(default_factory=dict)
    notes: str = ""


@dataclass(frozen=True)
class StepDirective:
    stage_id: str
    step: int
    phase_index: int
    trainable: frozenset[str]
    lr: float | None
    budget_remaining: dict[str, float]


def build_default_plan() -> list[StageSpec]:
    """The reference six-stage schedule with its golden constants."""
    tokens = lambda n: Budget(n, "tokens")
    hours = lambda n: Budget(n, "hours")
    samples = lambda n: Budget(n, "samples")

    s1 = StageSpec(
        stage_id="s1_general_audio",
        phases=[
            Phase(Fraction(3, 10), frozenset({"audio_adapter"}), 4e-5),
            Phase(Fraction(7, 10), frozenset({"audio_encoder"}), 4e-5),
        ],
        token_budget={"speech": tokens(14_400_000_000)},
        data_hours={"asr": 256_000, "audio_caption": 64_000},
        notes="adapter warm-up then encoder fine-tuning; thinker frozen",
    )
    s2 = StageSpec(
        stage_id="s2_alignment_cpt",
        phases=[Phase(Fraction(1), frozenset({"audio_encoder", "audio_adapter", "thinker"}), 1e-5)],
        token_budget={"text": tokens(144_000_000_000), "audio": tokens(144_000_000_000)},
        data_hours={
            "instruction_augmented": 2_560_000,
            "dialogue_structure": 480_000,
            "real_life_conversation": 100_000,
            "audioqa": 64_000,
        },
        notes="full-parameter continued pretraining on mixed text/audio",
    )
    s3 = StageSpec(
        stage_id="s3_instruction_ft",
        phases=[Phase(Fraction(1), frozenset({"audio_encoder", "audio_adapter", "thinker"}), 2e-6)],
        token_budget={"instruction_text": tokens(12_800_000_000)},
        data_hours={"multi_task_instruction": 320_000},
        notes="multi-task instruction fine-tuning, fully unfrozen thinker side",
    )
    post = StageSpec(
        stage_id="post_training",
        phases=[Phase(Fraction(1), frozenset({"audio_encoder", "audio_adapter", "thinker"}), None)],
        sample_budget={
            "dialogues": samples(6_000_000),
            "dialogues_authentic": samples(4_000_000),
            "dialogues_constructed": samples(2_000_000),
            "text_instructions": samples(12_000_000),
        },
        notes="dialogue post-training; learning rate unspecified",
    )
    talker = StageSpec(
        stage_id="talker_training",
        phases=[Phase(Fraction(1), frozenset({"talker"}), None)],
        token_budget={"talker_speech": hours(2_710_000)},
        notes="multilingual speech generator training; learning rate unspecified",
    )
    e2e = StageSpec(
        stage_id="end_to_end",
        phases=[Phase(Fraction(1), frozenset(PARAM_GROUPS), None)],
        sample_budget={
            "dialogues": samples(6_000_000),
            "text_instructions": samples(12_000_000),
        },
        notes="full-parameter joint fine-tuning; data mirrors post_training",
    )
    return [s1, s2, s3, post, talker, e2e]


def resolve_stage(plan: list[StageSpec], stage_id: str) -> StageSpec:
    stage_id = STAGE_ALIASES.get(stage_id, stage_id)
    for stage in plan:
        if stage.stage_id == stage_id:
            return stage
    raise KeyError(f"stage {stage_id!r} not in plan")


def phase_boundaries(stage: StageSpec, total_steps: int) -> list[int]:
    """Cumulative end step of each phase: floor(cum_fraction * total)."""
    bounds = []
    cum = Fraction(0)
    for phase in stage.phases:
        cum += phase.fraction
        bounds.append(int(cum * total_steps))
    bounds[-1] = total_steps  # fractions sum to 1 exactly
    return bounds


def directive_at(plan: list[StageSpec], stage_id: str, step: int,
                 total_steps: int | None = None) -> StepDirective:
    """Trainable groups, learning rate and remaining budget at one step."""
    stage = resolve_stage(plan, stage_id)
    total = total_steps if total_steps is not None else stage.total_steps
    if not 1 <= step <= total:
        raise ValueError(f"step must be in [1, {total}], got {step}")
    bounds = phase_boundaries(stage, total)
    phase_index = next(k for k, b in enumerate(bounds) if step <= b)
    phase = stage.phases[phase_index]
    remaining = {}
    for cls, budget in {**stage.token_budget, **stage.sample_budget}.items():
        remaining[cls] = budget.amount * (total - step) / total
    return StepDirective(stage_id=stage.stage_id, step=step, phase_index=phase_index,
                         trainable=phase.trainable, lr=phase.lr, budget_remaining=remaining)


# --------------------------------------------------------------------------
# budget verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BudgetRow:
    stage_id: str
    data_class: str
    declared_tokens: float | None
    derived_tokens: float | None
    relative_error: float | None
    status: str  # pass | fail | missing | unit_mismatch


def _as_tokens(budget_like: Budget) -> float | None:
    if budget_like.unit == "tokens":
        return float(budget_like.amount)
    if budget_like.unit == "hours":
        # imported here: only a budget check needs the corpus data model
        from seqforge.corpus import tokens_for_hours

        return float(tokens_for_hours(budget_like.amount))
    return None  # samples are not token-convertible


def budget_check(plan: list[StageSpec], stats: dict[str, dict]) -> list[BudgetRow]:
    """Compare declared budgets against corpus statistics.

    stats maps data-class -> {"amount": finite x >= 0, "unit": one of BUDGET_UNITS};
    an entry of another shape raises SchemaError. Hours convert at
    corpus.ADAPTER_FRAME_RATE_HZ, and a relative error up to BUDGET_TOLERANCE
    passes; a class absent from stats yields a "missing" row rather than
    failing the whole check.
    """
    rows: list[BudgetRow] = []
    for stage in plan:
        for cls, declared in stage.token_budget.items():
            declared_tokens = _as_tokens(declared)
            entry = stats.get(cls)
            if entry is None:
                rows.append(BudgetRow(stage.stage_id, cls, declared_tokens, None, None, "missing"))
                continue
            # The upper bound also refuses NaN, infinity and an int too large for a float.
            if not (type(entry) is dict and type(entry.get("amount")) in (int, float)
                    and 0 <= entry["amount"] <= sys.float_info.max
                    and entry.get("unit") in BUDGET_UNITS):
                raise SchemaError(f"{cls}: expected {{\"amount\": number >= 0, "
                                  f"\"unit\": one of {list(BUDGET_UNITS)}}}")
            try:
                derived = _as_tokens(Budget(float(entry["amount"]), entry["unit"]))
            except ValueError as exc:  # hours past the float range in tokens
                raise SchemaError(f"{cls}: {exc}") from None
            if declared_tokens is None or derived is None:
                rows.append(BudgetRow(stage.stage_id, cls, declared_tokens, derived,
                                      None, "unit_mismatch"))
                continue
            rel = abs(derived - declared_tokens) / declared_tokens if declared_tokens else 0.0
            status = "pass" if rel <= BUDGET_TOLERANCE else "fail"
            rows.append(BudgetRow(stage.stage_id, cls, declared_tokens, derived, rel, status))
    return rows


# --------------------------------------------------------------------------
# (de)serialization
# --------------------------------------------------------------------------

def plan_to_dict(plan: list[StageSpec]) -> dict:
    stages = []
    for s in plan:
        stages.append({
            "stage_id": s.stage_id,
            "total_steps": s.total_steps,
            "phases": [
                {"fraction": str(p.fraction), "trainable": sorted(p.trainable), "lr": p.lr}
                for p in s.phases
            ],
            "token_budget": {k: {"amount": b.amount, "unit": b.unit}
                             for k, b in s.token_budget.items()},
            "sample_budget": {k: {"amount": b.amount, "unit": b.unit}
                              for k, b in s.sample_budget.items()},
            "data_hours": s.data_hours,
            "notes": s.notes,
        })
    return {"stages": stages}
