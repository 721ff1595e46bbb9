"""The CE+KD loss at the logits, its tangent, and the KD configuration.

Standard soft-label formulation: (1 - alpha) * CE(student, labels) +
alpha * tau^2 * KL(softmax(teacher/tau) || softmax(student/tau)), with the
teacher treated as a constant. `logits_loss` is the one implementation;
the models call it on every pass and `kd_loss` is its validated public
form. `logits_loss_jvp` is the directional derivative of its gradient,
used by the Hessian-vector products of the second-order MAML path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import ShapeError, softmax, softmax_cross_entropy, softmax_jvp


@dataclass
class KdConfig:
    kd_temperature: float = 2.0
    alpha: float = 0.5
    apply_in: str = "both"  # inner | outer | both

    def validate(self) -> None:
        if not math.isfinite(self.kd_temperature) or self.kd_temperature <= 0.0:
            raise ValueError("kd_temperature must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.apply_in not in ("inner", "outer", "both"):
            raise ValueError(f"unknown apply_in {self.apply_in!r}")


def _floored_log(q):
    """log(q) with q floored at the smallest normal of its dtype. A float64
    literal like 1e-300 rounds to 0 in float32, and a probability that
    underflows to 0 would give 0 * log(0) = NaN for the teacher's and an
    infinite KL for the student's (logits about 175 apart at tau 2)."""
    return np.log(np.maximum(q, np.finfo(q.dtype).tiny))


def kd_parts(student_logits, teacher_logits, tau: float):
    """Mean KL(teacher_soft || student_soft) and the tau^2-scaled gradient
    of that term w.r.t. the student logits."""
    if student_logits.shape != teacher_logits.shape:
        raise ShapeError(
            f"logit shapes differ: {student_logits.shape} vs {teacher_logits.shape}"
        )
    n = student_logits.shape[0]
    qs = softmax(student_logits / tau)
    qt = softmax(teacher_logits / tau)
    kl = float(np.mean(np.sum(qt * (_floored_log(qt) - _floored_log(qs)), axis=1)))
    grad = tau * (qs - qt) / n  # includes the tau^2 scale: tau^2 * (1/tau)
    return kl, grad


def logits_loss(logits, labels, kd):
    """Mean CE+KD loss and its gradient at the logits.

    kd is None (plain cross-entropy) or (teacher_logits, alpha, tau).
    alpha = 0 short-circuits to plain cross-entropy bit-exactly.
    """
    ce_loss, ce_grad = softmax_cross_entropy(logits, labels)
    if kd is None or kd[1] == 0.0:
        return ce_loss, ce_grad
    teacher_logits, alpha, tau = kd
    kl, kd_grad = kd_parts(logits, teacher_logits, tau)
    loss = (1.0 - alpha) * ce_loss + alpha * tau * tau * kl
    return loss, (1.0 - alpha) * ce_grad + alpha * kd_grad


def logits_loss_jvp(logits, dlogits, kd):
    """Tangent of logits_loss' gradient in the direction dlogits."""
    n = logits.shape[0]
    dce = softmax_jvp(softmax(logits), dlogits) / n
    if kd is None or kd[1] == 0.0:
        return dce
    _, alpha, tau = kd
    dkd = softmax_jvp(softmax(logits / tau), dlogits) / n  # tau * d(tau*(qs-qt)/n)/dz direction
    return (1.0 - alpha) * dce + alpha * dkd


def kd_loss(student_logits, teacher_logits, labels, cfg: KdConfig):
    """Combined hard-label CE and soft-label KL loss under a validated config.

    Returns (loss, grad_student_logits).
    """
    cfg.validate()
    return logits_loss(student_logits, labels, (teacher_logits, cfg.alpha, cfg.kd_temperature))
