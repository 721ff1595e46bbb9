"""Cosine similarity and row normalization."""

from __future__ import annotations

import warnings

import numpy as np

from .numeric import ShapeError


class ZeroNormWarning(UserWarning):
    """A zero-norm vector entered a cosine computation; similarity is 0."""


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between a and b; 0 with a warning if either is zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        warnings.warn("zero-norm vector in cosine_similarity", ZeroNormWarning)
        return 0.0
    return float(a @ b / (na * nb))


def normalize_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-normalize along the last axis; zero rows stay zero.

    Returns (normed, norms, zero_mask), `norms` keeping the reduced axis.
    """
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    zero = norms[..., 0] == 0.0
    safe = np.where(norms == 0.0, 1.0, norms)
    return m / safe, norms, zero

