"""InfoNCE loss and contrastive fine-tuning of the adapter head.

The adapter is a small trainable head over frozen input embeddings; the
anchor, positive and negative vectors of every contrastive sample all
pass through it before the similarity computation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Corpus, write_csv
from .fusion import FusionModel
from .numeric import ShapeError, adamw_init, checked_adamw_step, softmax
from .similarity import ZeroNormWarning, normalize_rows

ADP1_MAGIC = b"ADP1"


class AdapterHead(FusionModel):
    """The adapter as a `FusionModel` layout: in -> hidden relu is its one
    branch, hidden -> out identity its head."""

    MAGIC = ADP1_MAGIC
    LAYOUT = (1, 0, 1)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


def init_adapter(in_dim: int, hidden_dim: int, out_dim: int, seed: int) -> AdapterHead:
    return AdapterHead.init(seed, [(in_dim, hidden_dim, "relu")], [],
                            [(hidden_dim, out_dim, "identity")])


@dataclass
class CftConfig:
    temperature: float = 0.07
    learning_rate: float = 1e-5
    batch_size: int = 32
    epochs: int = 1
    weight_decay: float = 0.01
    hidden_dim: int = 512
    output_dim: int = 256
    denominator_mode: str = "in_sample"  # or "in_batch"
    seed: int = 0

    def validate(self) -> None:
        for name in ("temperature", "learning_rate"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        for name in ("batch_size", "epochs", "hidden_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.denominator_mode not in ("in_sample", "in_batch"):
            raise ValueError(f"unknown denominator mode {self.denominator_mode!r}")


def _info_nce(za, zp, zn, tau, in_batch):
    """Mean InfoNCE loss of B anchors, each scored against its own positive
    and a pool of negatives: its own k (`in_batch` False) or every one of the
    batch's B*k (`in_batch` True).

    za, zp: (B, d); zn: (B, k, d). Returns (loss, grad_za, grad_zp, grad_zn).
    The anchors form G groups, each sharing one pool of negatives: G = B in
    sample, G = 1 in batch. The negative scores are one batched GEMM over the
    groups and their gradients two more; gradient directions touching a
    zero-norm vector are zero.
    """
    bsz, k, dd = zn.shape
    groups = 1 if in_batch else bsz
    a_hat, a_norm, a_zero = normalize_rows(za)
    p_hat, p_norm, p_zero = normalize_rows(zp)
    n_hat, n_norm, n_zero = normalize_rows(zn.reshape(bsz * k, dd))
    if a_zero.any() or p_zero.any() or n_zero.any():
        warnings.warn("zero-norm vector in info_nce", ZeroNormWarning)
    a_g = a_hat.reshape(groups, -1, dd)  # (G, B/G, d)
    n_g = n_hat.reshape(groups, -1, dd)  # (G, B*k/G, d): each group's negatives
    s_pos = np.einsum("bd,bd->b", a_hat, p_hat)
    s_neg = a_g @ n_g.transpose(0, 2, 1)  # (G, B/G, B*k/G) cosines; zero rows give 0
    s = np.concatenate([s_pos[:, None], s_neg.reshape(bsz, -1)], axis=1)
    p = softmax(s / tau)
    loss = float(np.mean(-np.log(p[:, 0])))
    # d(loss_i)/ds_ij, zeroed on zero-norm anchors, positives and negatives
    w = p
    w[:, 0] -= 1.0
    w /= tau
    w[a_zero] = 0.0
    w_pos, w_neg = w[:, 0:1], w[:, 1:].reshape(s_neg.shape)  # views into w
    w_pos[p_zero] = 0.0
    np.copyto(w_neg, 0.0, where=n_zero.reshape(groups, 1, -1))
    # cosine gradients: ds/da = (c_hat - s*a_hat)/|a|, ds/dc = (a_hat - s*c_hat)/|c|
    ga = w_pos * p_hat + (w_neg @ n_g).reshape(bsz, dd) - (w * s).sum(axis=1, keepdims=True) * a_hat
    ga /= np.where(a_zero[:, None], 1.0, a_norm)
    gp = w_pos * (a_hat - s_pos[:, None] * p_hat) / np.where(p_zero[:, None], 1.0, p_norm)
    gn = w_neg.transpose(0, 2, 1) @ a_g - (w_neg * s_neg).sum(axis=1)[..., None] * n_g
    gn /= np.where(n_zero[:, None], 1.0, n_norm).reshape(groups, -1, 1)
    scale = 1.0 / bsz
    return loss, ga * scale, gp * scale, gn.reshape(bsz, k, dd) * scale


def info_nce(anchor, positive, negatives, tau: float):
    """InfoNCE loss for one sample with gradients w.r.t. every input vector.

    Returns (loss, grad_anchor, grad_positive, [grad_negative...]).
    """
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValueError("tau must be > 0")
    anchor = np.asarray(anchor, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    negatives = [np.asarray(n, dtype=np.float64) for n in negatives]
    if not negatives:
        raise ValueError("at least one negative required")
    for v in [positive] + negatives:
        if v.shape != anchor.shape:
            raise ShapeError(f"dim mismatch: {v.shape} vs {anchor.shape}")
    loss, ga, gp, gn = _info_nce(anchor[None], positive[None], np.stack(negatives)[None], tau,
                                 in_batch=False)
    return loss, ga[0], gp[0], list(gn[0])


def train_adapter(samples, corpus: Corpus, cfg: CftConfig):
    """AdamW-train the adapter on a sample table of `corpus` rows
    (`mining.sample_table`).

    Returns (head, trace) where trace is a list of (batch_index, mean_loss).
    Raises NonFiniteError naming the epoch and batch at the first batch
    whose loss or gradient is not finite, before its update, or whose
    update leaves the parameters so.
    """
    cfg.validate()
    if not len(samples):
        raise ValueError("no training samples")
    for col in (samples.anchor, samples.positive, samples.negatives):
        if col.size and (col.min() < 0 or col.max() >= len(corpus)):
            raise ValueError(f"sample rows must lie in [0, {len(corpus)})")
    head = init_adapter(corpus.dim, cfg.hidden_dim, cfg.output_dim, cfg.seed)
    # one copy of the corpus in the parameters' dtype, gathered from by every batch
    table = corpus.vectors.astype(head.params.dtype)
    n, k = len(samples), samples.negatives.shape[1]
    opt = adamw_init(head.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    trace = []
    batch_index = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 0xC47, epoch]).permutation(n)
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            batch = samples[order[start : start + cfg.batch_size]]
            bsz = len(batch)
            # the batch's anchors, then its positives, then its negatives
            flat = table[np.concatenate([batch.anchor, batch.positive, batch.negatives.ravel()])]
            with np.errstate(all="ignore"):  # checked before the step
                out, cache = head.forward_cache(flat)
                za = out[:bsz]
                zp = out[bsz : 2 * bsz]
                zn = out[2 * bsz :].reshape(bsz, k, -1)
                loss, ga, gp, gn = _info_nce(za, zp, zn, cfg.temperature,
                                             in_batch=cfg.denominator_mode == "in_batch")
                upstream = np.concatenate([ga, gp, gn.reshape(bsz * k, -1)])
                grads = head.backward(cache, upstream)
            checked_adamw_step(opt, head.params, loss, grads, f"epoch {epoch}, batch {b}")
            trace.append((batch_index, loss))
            batch_index += 1
    return head, trace


def refine(head: AdapterHead, corpus: Corpus) -> Corpus:
    """Forward every corpus vector through the adapter head.

    Outputs are L2-normalized, in float64 like every corpus: the contrastive
    objective is scale-invariant, so the raw output scale is arbitrary and
    unit norm keeps refined corpora comparable with raw ones for any
    downstream consumer.
    """
    if corpus.dim != head.in_dim:
        raise ShapeError(f"corpus dim {corpus.dim} != adapter in dim {head.in_dim}")
    out = normalize_rows(head.forward(corpus.vectors).astype(np.float64))[0]
    return corpus.take(range(len(corpus)), out)


def loss_trace_to_csv(path, trace) -> None:
    write_csv(path, ["batch_index", "mean_loss"], ([i, repr(float(loss))] for i, loss in trace))
