"""Loss numerics: stable primitives, analytic gradients vs finite differences."""
import math

import numpy as np
import pytest

from seqforge.losses import (JointResult, finite_diff_check, joint_loss,
                             kl_distill, log_softmax, masked_ce)


def test_log_softmax_symmetric_pair():
    out = log_softmax([0.0, 0.0])
    assert out == pytest.approx([-math.log(2), -math.log(2)])


def test_log_softmax_extreme_without_overflow():
    out = log_softmax([1000.0, 0.0])
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(-1000.0, abs=1e-9)


def test_log_softmax_normalizes():
    rng = np.random.default_rng(0)
    for _ in range(100):
        row = rng.normal(0, 5, size=rng.integers(2, 30))
        assert np.exp(log_softmax(row)).sum() == pytest.approx(1.0, abs=1e-12)


def test_log_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        log_softmax([np.inf, 0.0])


# --------------------------------------------------------------------------
# masked cross-entropy
# --------------------------------------------------------------------------

def test_ce_confident_logits_close_to_zero():
    res = masked_ce(np.array([[10.0, -10.0]]), [0], [True])
    assert res.loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
    assert res.loss < 1e-8


def test_ce_uniform_logits_equal_log_vocab():
    for vocab in (2, 7, 31):
        res = masked_ce(np.zeros((3, vocab)), [0, 1, vocab - 1], [True] * 3)
        assert res.loss == pytest.approx(math.log(vocab), abs=1e-12)


def test_ce_empty_mask_is_zero():
    res = masked_ce(np.ones((2, 4)), [0, 1], [False, False])
    assert res.loss == 0.0
    assert not res.grad.any()


def test_ce_grad_zero_on_unmasked_rows():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 5))
    res = masked_ce(logits, [0, 1, 2, 3], [True, False, True, False])
    assert not res.grad[1].any() and not res.grad[3].any()
    assert res.grad[0].any()


def test_ce_rejects_bad_targets():
    with pytest.raises(ValueError):
        masked_ce(np.zeros((1, 3)), [3], [True])


# --------------------------------------------------------------------------
# KL distillation
# --------------------------------------------------------------------------

def test_kl_identical_distributions_is_zero():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(5, 9))
    res = kl_distill(m, m, 1.0, [True] * 5)
    assert abs(res.loss) <= 1e-12
    assert np.abs(res.grad).max() <= 1e-10


def test_kl_handformula_peaked_teacher_uniform_student():
    teacher = np.array([[40.0, -40.0]])
    student = np.zeros((1, 2))
    res = kl_distill(teacher, student, 1.0, [True])
    assert res.loss == pytest.approx(math.log(2), rel=1e-10)


def test_kl_nonnegative_over_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n, v = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        res = kl_distill(rng.normal(0, 3, (n, v)), rng.normal(0, 3, (n, v)),
                         float(rng.uniform(0.3, 3.0)), rng.random(n) < 0.8)
        assert res.loss >= -1e-12


def test_kl_rejects_bad_args():
    with pytest.raises(ValueError):
        kl_distill(np.zeros((2, 3)), np.zeros((2, 4)), 1.0, [True, True])
    with pytest.raises(ValueError):
        kl_distill(np.zeros((2, 3)), np.zeros((2, 3)), 0.0, [True, True])


# --------------------------------------------------------------------------
# gradient verification
# --------------------------------------------------------------------------

def test_ce_gradient_vs_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n, v = int(rng.integers(2, 6)), int(rng.integers(4, 9))
        logits = rng.normal(0, 0.7, (n, v))
        targets = rng.integers(0, v, n)
        mask = rng.random(n) < 0.7
        worst = max(worst, finite_diff_check(
            lambda m: masked_ce(m, targets, mask), logits, 1e-6))
    assert worst < 1e-5


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_kl_gradient_vs_finite_differences(temperature):
    # Fixture logits scale with T so the softened distributions stay equally
    # conditioned at every temperature (no near-zero gradient coordinates
    # where finite-difference roundoff would dominate the relative error).
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n, v = int(rng.integers(2, 6)), int(rng.integers(4, 9))
        teacher = rng.normal(0, 0.7 * temperature, (n, v))
        student = rng.normal(0, 0.7 * temperature, (n, v))
        mask = rng.random(n) < 0.7
        worst = max(worst, finite_diff_check(
            lambda m: kl_distill(teacher, m, temperature, mask), student, 1e-6))
    assert worst < 1e-5


def test_finite_diff_constant_function_is_exact():
    const = lambda m: masked_ce(m, [0, 0], [False, False])
    assert finite_diff_check(const, np.ones((2, 3)), 1e-6) == 0.0


def test_grad_rows_sum_to_zero():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(6, 8))
    targets = rng.integers(0, 8, 6)
    mask = [True] * 6
    for res in (masked_ce(logits, targets, mask),
                kl_distill(rng.normal(size=(6, 8)), logits, 2.0, mask)):
        assert np.abs(res.grad.sum(axis=1)).max() < 1e-10


def test_shift_invariance_per_row():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(3, 5))
    targets = [1, 2, 3]
    mask = [True, True, True]
    shifted = logits + rng.normal(size=(3, 1))  # constant per row
    a = masked_ce(logits, targets, mask)
    b = masked_ce(shifted, targets, mask)
    assert b.loss == pytest.approx(a.loss, abs=1e-10)
    teacher = rng.normal(size=(3, 5))
    ka = kl_distill(teacher, logits, 1.0, mask)
    kb = kl_distill(teacher + 3.0, logits, 1.0, mask)
    assert kb.loss == pytest.approx(ka.loss, abs=1e-10)


# --------------------------------------------------------------------------
# joint composition
# --------------------------------------------------------------------------

def _fake(loss, shape, fill):
    from seqforge.losses import LossResult
    return LossResult(loss, np.full(shape, fill))


def test_joint_degenerate_weight():
    res = joint_loss(_fake(1.0, (2, 2), 0.5), _fake(9.0, (2, 2), 3.0), lambda_kl=0.0)
    assert res.loss == 1.0
    assert np.allclose(res.thinker_grad, 0.5)


def test_joint_known_components():
    res = joint_loss(_fake(1.0, (2, 2), 1.0), _fake(0.5, (2, 2), 2.0), lambda_kl=1.0)
    assert res.loss == 1.5
    assert np.allclose(res.thinker_grad, 3.0)


def test_joint_with_talker_term_and_linearity():
    rng = np.random.default_rng(8)
    logits = rng.normal(0, 0.7, (3, 5))
    teacher = rng.normal(0, 0.7, (3, 5))
    talker_logits = rng.normal(0, 0.7, (4, 6))
    targets, mask = [0, 1, 2], [True, True, True]
    t_targets, t_mask = [0, 1, 2, 3], [True, True, False, True]
    lam_kl, lam_talker = 0.7, 1.3

    def thinker_total(m):
        ce = masked_ce(m, targets, mask)
        kl = kl_distill(teacher, m, 1.0, mask)
        joint = joint_loss(ce, kl, lam_kl,
                           masked_ce(talker_logits, t_targets, t_mask), lam_talker)
        from seqforge.losses import LossResult
        return LossResult(joint.loss, joint.thinker_grad)

    assert finite_diff_check(thinker_total, logits, 1e-6) < 1e-5

    def talker_total(m):
        ce = masked_ce(logits, targets, mask)
        kl = kl_distill(teacher, logits, 1.0, mask)
        joint = joint_loss(ce, kl, lam_kl, masked_ce(m, t_targets, t_mask), lam_talker)
        from seqforge.losses import LossResult
        return LossResult(joint.loss, joint.talker_grad)

    assert finite_diff_check(talker_total, talker_logits, 1e-6) < 1e-5


def test_joint_rejects_negative_weights():
    with pytest.raises(ValueError):
        joint_loss(_fake(1.0, (1, 2), 0.0), _fake(1.0, (1, 2), 0.0), lambda_kl=-1.0)

