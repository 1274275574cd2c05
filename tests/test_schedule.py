"""Schedule plan: golden constants, phase boundaries, budget arithmetic."""
import pytest

from seqforge.schedule import (BUDGET_TOLERANCE, BUDGET_UNITS, PARAM_GROUPS, STAGE_IDS,
                               budget_check, build_default_plan, directive_at,
                               phase_boundaries, resolve_stage)


@pytest.fixture(scope="module")
def plan():
    return build_default_plan()


def test_plan_has_all_six_stages(plan):
    assert [s.stage_id for s in plan] == list(STAGE_IDS)
    # The plan is built only from these literals, and no constructor checks them.
    for stage in plan:
        assert stage.total_steps >= 1
        assert sum(p.fraction for p in stage.phases) == 1
        for p in stage.phases:
            assert 0 < p.fraction <= 1
            assert p.trainable and p.trainable <= set(PARAM_GROUPS)
            assert p.lr is None or p.lr > 0
        for budget in (*stage.token_budget.values(), *stage.sample_budget.values()):
            assert budget.unit in BUDGET_UNITS and budget.amount >= 0


def test_golden_learning_rates(plan):
    assert all(p.lr == 4e-5 for p in resolve_stage(plan, "s1").phases)
    assert resolve_stage(plan, "s2").phases[0].lr == 1e-5
    assert resolve_stage(plan, "s3").phases[0].lr == 2e-6
    # unspecified late-stage rates stay None, never fabricated
    assert resolve_stage(plan, "post_training").phases[0].lr is None
    assert resolve_stage(plan, "end_to_end").phases[0].lr is None


def test_golden_token_figures(plan):
    s1 = resolve_stage(plan, "s1")
    assert s1.token_budget["speech"].amount == 14_400_000_000
    assert s1.data_hours == {"asr": 256_000, "audio_caption": 64_000}
    s2 = resolve_stage(plan, "s2")
    assert s2.token_budget["text"].amount == 144_000_000_000
    assert s2.token_budget["audio"].amount == 144_000_000_000
    assert sum(s2.data_hours.values()) == 3_204_000
    s3 = resolve_stage(plan, "s3")
    assert s3.token_budget["instruction_text"].amount == 12_800_000_000
    post = resolve_stage(plan, "post_training")
    assert post.sample_budget["dialogues"].amount == 6_000_000
    assert post.sample_budget["dialogues_authentic"].amount == 4_000_000
    assert post.sample_budget["dialogues_constructed"].amount == 2_000_000
    assert post.sample_budget["text_instructions"].amount == 12_000_000
    talker = resolve_stage(plan, "talker_training")
    assert talker.token_budget["talker_speech"].amount == 2_710_000
    assert talker.token_budget["talker_speech"].unit == "hours"


def test_stage1_phase_structure(plan):
    s1 = resolve_stage(plan, "s1")
    assert [str(p.fraction) for p in s1.phases] == ["3/10", "7/10"]
    assert s1.phases[0].trainable == frozenset({"audio_adapter"})
    assert s1.phases[1].trainable == frozenset({"audio_encoder"})


def test_directive_at_thirty_percent_boundary(plan):
    assert directive_at(plan, "s1", 300, 1000).trainable == frozenset({"audio_adapter"})
    assert directive_at(plan, "s1", 301, 1000).trainable == frozenset({"audio_encoder"})
    assert directive_at(plan, "s1", 1000, 1000).trainable == frozenset({"audio_encoder"})


def test_boundary_enumeration_small_totals(plan):
    # floor(0.3 * total) adapter steps; remainder encoder. No minimum-step rule.
    for total in range(1, 11):
        adapter_steps = (3 * total) // 10
        for step in range(1, total + 1):
            directive = directive_at(plan, "s1", step, total)
            expected = "audio_adapter" if step <= adapter_steps else "audio_encoder"
            assert directive.trainable == frozenset({expected}), (total, step)
    # total_steps == 1 lands in the encoder phase under the floor rule
    assert directive_at(plan, "s1", 1, 1).trainable == frozenset({"audio_encoder"})


def test_phase_ranges_cover_everything_without_overlap(plan):
    for stage in plan:
        for total in (1, 2, 3, 7, 10, 997):
            bounds = phase_boundaries(stage, total)
            assert bounds[-1] == total
            assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
            phases_hit = [directive_at(plan, stage.stage_id, s, total).phase_index
                          for s in range(1, total + 1)]
            assert phases_hit == sorted(phases_hit)  # monotone, changes at bounds


def test_directive_rejects_out_of_range_steps(plan):
    with pytest.raises(ValueError):
        directive_at(plan, "s1", 0, 100)
    with pytest.raises(ValueError):
        directive_at(plan, "s1", 101, 100)


def test_budget_remaining_decreases(plan):
    early = directive_at(plan, "s2", 1, 100).budget_remaining
    late = directive_at(plan, "s2", 100, 100).budget_remaining
    assert early["text"] > 0
    assert late["text"] == 0


def test_budget_check_stage2_audio_hours(plan):
    rows = budget_check(plan, {"audio": {"amount": 3_204_000, "unit": "hours"}})
    [row] = [r for r in rows if r.data_class == "audio"]
    assert row.derived_tokens == 144_180_000_000
    assert row.relative_error == pytest.approx(0.00125)
    assert row.status == "pass"
    assert row.relative_error <= BUDGET_TOLERANCE


def test_budget_check_stage1_exact(plan):
    rows = budget_check(plan, {"speech": {"amount": 320_000, "unit": "hours"}})
    [row] = [r for r in rows if r.data_class == "speech"]
    assert row.derived_tokens == 14_400_000_000
    assert row.relative_error == 0.0
    assert row.status == "pass"


def test_budget_check_empty_stats_reports_missing(plan):
    rows = budget_check(plan, {})
    assert rows and all(r.status == "missing" for r in rows)


def test_budget_check_flags_large_errors(plan):
    rows = budget_check(plan, {"speech": {"amount": 1_000, "unit": "hours"}})
    [row] = [r for r in rows if r.data_class == "speech"]
    assert row.status == "fail"


def test_stage_aliases(plan):
    assert resolve_stage(plan, "s1").stage_id == "s1_general_audio"
    assert resolve_stage(plan, "s2_alignment_cpt").stage_id == "s2_alignment_cpt"
    with pytest.raises(KeyError):
        resolve_stage(plan, "s9")
