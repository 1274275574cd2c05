"""Supervision objectives in double precision with analytic gradients.

Masked cross-entropy over target token ids, temperature-scaled forward KL
distillation (teacher || student over logits), and their weighted joint
composition. Every gradient is verifiable against central finite differences
via ``finite_diff_check``.

Conventions: reduction is the mean over masked positions (an empty mask
yields loss 0 with zero gradient); KL is scaled by T^2 so gradient magnitude
stays temperature-invariant near convergence.
"""
from dataclasses import dataclass

import numpy as np


@dataclass
class LossResult:
    loss: float
    grad: np.ndarray


@dataclass
class JointResult:
    loss: float
    thinker_grad: np.ndarray
    talker_grad: np.ndarray | None


def _check_matrix(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D (positions x vocab), got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 2:
        raise ValueError(f"{name} needs >= 1 position and >= 2 vocabulary entries")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_mask(mask, n_positions: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n_positions,):
        raise ValueError(f"mask length {mask.shape} does not match {n_positions} positions")
    return mask


def log_softmax(row) -> np.ndarray:
    """Numerically stable log-softmax of a single row."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError("log_softmax expects a 1-D row")
    if not np.all(np.isfinite(row)):
        raise ValueError("log_softmax input must be finite")
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def _log_softmax_rows(m: np.ndarray) -> np.ndarray:
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def masked_ce(logits, targets, mask) -> LossResult:
    """Mean negative log-likelihood of targets over masked positions."""
    logits = _check_matrix(logits, "logits")
    n, vocab = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ValueError(f"targets length {targets.shape} does not match {n} positions")
    if np.any((targets < 0) | (targets >= vocab)):
        raise ValueError(f"targets must lie in [0, {vocab})")
    mask = _check_mask(mask, n)

    n_masked = int(mask.sum())
    if n_masked == 0:
        return LossResult(0.0, np.zeros_like(logits))

    logp = _log_softmax_rows(logits)
    picked = logp[np.arange(n), targets]
    loss = float(-picked[mask].sum() / n_masked)

    grad = np.exp(logp)
    grad[np.arange(n), targets] -= 1.0
    grad[~mask] = 0.0
    grad /= n_masked
    return LossResult(loss, grad)


def kl_distill(teacher, student, temperature: float, mask) -> LossResult:
    """Forward KL(teacher || student) over temperature-softened logits.

    Per masked row: sum_i p_i (ln p_i - ln q_i) with p, q the softened
    distributions; mean over masked rows, scaled by T^2. Gradient is taken
    w.r.t. the student logits.
    """
    teacher = _check_matrix(teacher, "teacher")
    student = _check_matrix(student, "student")
    if teacher.shape != student.shape:
        raise ValueError(f"shape mismatch: teacher {teacher.shape} vs student {student.shape}")
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    n = teacher.shape[0]
    mask = _check_mask(mask, n)

    n_masked = int(mask.sum())
    if n_masked == 0:
        return LossResult(0.0, np.zeros_like(student))

    t = float(temperature)
    logp = _log_softmax_rows(teacher / t)
    logq = _log_softmax_rows(student / t)
    p = np.exp(logp)
    rows = np.where(p > 0.0, p * (logp - logq), 0.0).sum(axis=1)
    loss = float(t * t * rows[mask].sum() / n_masked)

    q = np.exp(logq)
    grad = (t / n_masked) * (q - p)
    grad[~mask] = 0.0
    return LossResult(loss, grad)


def joint_loss(ce: LossResult, kl: LossResult, lambda_kl: float = 1.0,
               talker_ce: LossResult | None = None,
               lambda_talker: float = 0.0) -> JointResult:
    """Weighted sum of the supervision terms; gradients combine linearly."""
    if lambda_kl < 0 or lambda_talker < 0:
        raise ValueError("loss weights must be >= 0")
    total = ce.loss + lambda_kl * kl.loss
    thinker_grad = ce.grad + lambda_kl * kl.grad
    talker_grad = None
    if talker_ce is not None:
        total += lambda_talker * talker_ce.loss
        talker_grad = lambda_talker * talker_ce.grad
    return JointResult(total, thinker_grad, talker_grad)


def finite_diff_check(loss_fn, point, epsilon: float = 1e-6) -> float:
    """Max relative error of the analytic gradient vs central differences.

    loss_fn maps a logit matrix to a LossResult. The relative error at each
    coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    point = np.asarray(point, dtype=np.float64)
    analytic = loss_fn(point).grad
    worst = 0.0
    flat = point.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + epsilon
        up = loss_fn(point).loss
        flat[k] = orig - epsilon
        down = loss_fn(point).loss
        flat[k] = orig
        numeric = (up - down) / (2.0 * epsilon)
        a = analytic.reshape(-1)[k]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst
