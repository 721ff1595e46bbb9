"""One network class, `FusionModel`: input branches whose outputs are
concatenated and fed to a head.

Each trainable network of the pipeline is a layout of this class, fixed
by a checkpoint magic and its (attribute branch, embedding branch, head)
layer counts. The student (FUS1) has an attribute branch and an
embedding branch under a fusion layer and a classifier. The teacher
(TCH1) has an attribute branch of the same shape, no embedding branch
and a classifier alone as its head. The contrastive adapter (ADP1,
`cft.AdapterHead`) has its hidden layer as its one branch and its output
layer as its head. Every pass loops over the branches, so all three share
one forward, backward, checkpoint and parameter binding.

The models the pipeline builds (`FusionModel.init`, which `init_fusion`,
`init_teacher` and `cft.init_adapter` call) and every `load` hold their
parameters in `PARAM_DTYPE`, float32, so their passes compute in float32;
the weights are drawn in float64 and cast, and the float32 checkpoints
load exactly.
A float64 twin, `model.bound_to(model.params.astype(np.float64))`,
computes in float64.

The Hessian-vector product is computed by a forward-over-reverse sweep:
a parameter tangent is pushed through the caches of a gradient pass's
forward (its `Linearization`) and then through the explicit backward
pass, yielding the directional derivative of the gradient without forming
any Hessian.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .distill import logits_loss, logits_loss_jvp
from .numeric import (
    NonFiniteError,
    ShapeError,
    adamw_init,
    bind_params,
    chain_backward,
    chain_backward_jvp,
    chain_forward,
    chain_output,
    chain_params,
    chain_tangent,
    checked_adamw_step,
    init_dense,
    n_params,
    rebind_params,
)
from .data import Corpus, FormatError
from .serial import read_layers, write_layers

FUS1_MAGIC = b"FUS1"
TCH1_MAGIC = b"TCH1"
PARAM_DTYPE = np.float32  # the parameters of every model the pipeline builds or loads


def batch_arrays(batch):
    """The (attrs, embs, labels) arrays of a `meta.Batch`."""
    return tuple(batch)


class Linearization(NamedTuple):
    """A model's forward and loss on one batch at fixed parameters: the
    mean loss, the logits, `forward_cache`'s caches, the loss gradient
    w.r.t. the logits and the KD tuple the loss was taken with."""

    loss: float
    logits: np.ndarray
    cache: tuple
    grad_logits: np.ndarray
    kd: tuple | None


def _concat(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


class FusionModel:
    """Branches -> concat -> head. As the student: attr branch (m -> h_a
    relu -> 128 relu) + emb branch (d' -> 128) -> fusion (256 relu) ->
    classifier (n_classes). Every layer's weights and bias are views into
    the flat vector `params`; gradients and Hessian-vector products share
    its layout. A layout subclass sets only `MAGIC` and `LAYOUT`."""

    MAGIC = FUS1_MAGIC
    LAYOUT = (2, 1, 2)  # attr, emb and head layers in a checkpoint

    def __init__(self, attr_branch, emb_branch, *head, params=None):
        # copies of the layers are bound to `params`, a copy of their values
        # unless given; the caller's layers stay as they are
        self.attr_branch, self.emb_branch, self.head = (
            [replace(l) for l in chain] for chain in (attr_branch, emb_branch, head))
        if not self.attr_branch or not self.head:
            raise ShapeError("a model needs an attribute branch and a head")
        layers = self.layers  # each layer but the first of a chain takes its predecessor's output
        starts = {len(self.attr_branch), len(self.attr_branch) + len(self.emb_branch)}
        for i in range(1, len(layers)):
            if i not in starts and layers[i - 1].out_dim != layers[i].in_dim:
                raise ShapeError(f"layer {i} takes {layers[i].in_dim} inputs, "
                                 f"layer {i - 1} gives {layers[i - 1].out_dim}")
        widths = [b[-1].out_dim for b in self.branches]
        if sum(widths) != self.head[0].in_dim:
            raise ShapeError(f"branch output widths {widths} do not add up to the head "
                             f"input width {self.head[0].in_dim}")
        self.params = bind_params(layers) if params is None else rebind_params(layers, params)

    @property
    def branches(self):
        """The non-empty branches, fed (attrs, embs) in that order."""
        return [b for b in (self.attr_branch, self.emb_branch) if b]

    @property
    def layers(self):
        return self.attr_branch + self.emb_branch + self.head

    @property
    def classifier(self):
        return self.head[-1]

    @property
    def n_classes(self) -> int:
        return self.classifier.out_dim

    @property
    def attr_dim(self) -> int:
        return self.attr_branch[0].in_dim

    @property
    def emb_dim(self) -> int:
        return self.emb_branch[0].in_dim

    def _cuts(self, flat):
        """Per-branch slices of a flat parameter-shaped vector, then the head's."""
        return np.split(flat, np.cumsum([n_params(c) for c in self.branches]))

    def _branch_columns(self, g):
        """Per-branch column blocks of a head-input-shaped matrix."""
        return np.split(g, np.cumsum([b[-1].out_dim for b in self.branches[:-1]]), axis=1)

    def get_params(self):
        """The live per-layer arrays: views into `params`."""
        return chain_params(self.layers)

    def bound_to(self, params) -> "FusionModel":
        """This model with its layers viewing the flat vector `params`, which
        is not copied: a pass through it reads `params` as they stand."""
        return type(self)(self.attr_branch, self.emb_branch, *self.head, params=params)

    def clone(self) -> "FusionModel":
        return self.bound_to(self.params.copy())

    def in_param_dtype(self) -> "FusionModel":
        """This model with its parameters in `PARAM_DTYPE` (itself if they are)."""
        return self if self.params.dtype == PARAM_DTYPE else self.bound_to(
            self.params.astype(PARAM_DTYPE))

    def forward_cache(self, attrs, embs=None):
        outs, caches = [], []
        for branch, x in zip(self.branches, (attrs, embs)):
            a, c = chain_forward(branch, x)
            outs.append(a)
            caches.append(c)
        logits, ch = chain_forward(self.head, _concat(outs))
        return logits, (caches, ch)

    def forward(self, attrs, embs=None):
        """`forward_cache`'s logits, keeping no caches: an inference pass
        holds one activation per branch at a time."""
        outs = [chain_output(branch, x) for branch, x in zip(self.branches, (attrs, embs))]
        return chain_output(self.head, _concat(outs))

    def backward(self, cache, grad_logits):
        """Flat gradient vector laid out like `params`."""
        caches, ch = cache
        grads = np.empty_like(self.params)
        *branch_out, head_out = self._cuts(grads)
        _, gh = chain_backward(self.head, ch, grad_logits, out=head_out)
        for branch, c, g, out in zip(self.branches, caches, self._branch_columns(gh), branch_out):
            chain_backward(branch, c, g, input_grad=False, out=out)
        return grads

    def linearize(self, attrs, embs, labels, kd=None) -> "Linearization":
        """The forward and loss half of a gradient pass: what `backward` and
        `hvp` read at these parameters."""
        logits, cache = self.forward_cache(attrs, embs)
        loss, gl = logits_loss(logits, labels, kd)
        return Linearization(loss, logits, cache, gl, kd)

    def loss_and_grads(self, attrs, embs, labels, kd=None):
        """One forward/backward pass: (mean loss, gradients)."""
        lin = self.linearize(attrs, embs, labels, kd)
        return lin.loss, self.backward(lin.cache, lin.grad_logits)

    def hvp(self, lin, vec):
        """Hessian-vector product of the mean loss w.r.t. the flat parameters:
        `vec` pushed through the caches of `lin`, a `linearize` at these
        parameters, then back. It runs no forward and no loss of its own."""
        _, logits, (caches, ch), gl, kd = lin
        *branch_vecs, head_vec = self._cuts(vec)
        # the inputs carry no tangent
        tangents = [chain_tangent(b, c, dp) for b, c, dp in zip(self.branches, caches, branch_vecs)]
        dlogits, head_dxs = chain_tangent(self.head, ch, head_vec,
                                          _concat([da for da, _ in tangents]))
        dgl = logits_loss_jvp(logits, dlogits, kd)
        dgrads = np.empty_like(self.params)
        *branch_out, head_out = self._cuts(dgrads)
        _, gh, dgh = chain_backward_jvp(self.head, head_vec, ch, head_dxs, gl, dgl, out=head_out)
        cols = zip(self._branch_columns(gh), self._branch_columns(dgh))
        for branch, dp, c, (_, dxs), (g, dg), out in zip(self.branches, branch_vecs, caches,
                                                         tangents, cols, branch_out):
            chain_backward_jvp(branch, dp, c, dxs, g, dg, input_grad=False, out=out)
        return dgrads

    @classmethod
    def init(cls, seed: int, attr, emb, head) -> "FusionModel":
        """A new model of this layout: each chain is a list of (in, out,
        activation), drawn Glorot-uniform (`init_dense`) in `layers` order
        from an rng salted by `MAGIC`, and held in `PARAM_DTYPE`."""
        rng = np.random.default_rng([seed, int.from_bytes(cls.MAGIC, "big")])
        attr, emb, head = ([init_dense(i, o, act, rng) for i, o, act in chain]
                           for chain in (attr, emb, head))
        return cls(attr, emb, *head).in_param_dtype()

    def save(self, path) -> None:
        write_layers(path, self.MAGIC, self.layers)

    @classmethod
    def load(cls, path) -> "FusionModel":
        layers = read_layers(path, cls.MAGIC)
        n_attr, n_emb, n_head = cls.LAYOUT
        if len(layers) != n_attr + n_emb + n_head:
            raise FormatError(
                f"{path}: expected {n_attr + n_emb + n_head} layers in a "
                f"{cls.MAGIC.decode()} checkpoint, got {len(layers)}"
            )
        try:
            model = cls(layers[:n_attr], layers[n_attr : n_attr + n_emb], *layers[n_attr + n_emb :])
        except ShapeError as exc:
            raise FormatError(f"{path}: {exc}") from None
        return model.in_param_dtype()


class TeacherModel(FusionModel):
    """Attribute-only classifier: m -> h_a relu -> 128 relu -> n_classes."""

    MAGIC = TCH1_MAGIC
    LAYOUT = (2, 0, 1)


ATTR_HIDDEN = 256  # attribute branch hidden width
BRANCH_WIDTH = 128


def _attr_branch(attr_dim: int) -> list:
    """The attribute branch of the student and the teacher: m -> h_a relu -> 128 relu."""
    return [(attr_dim, ATTR_HIDDEN, "relu"), (ATTR_HIDDEN, BRANCH_WIDTH, "relu")]


def init_fusion(attr_dim: int, emb_dim: int, n_classes: int, seed: int) -> FusionModel:
    return FusionModel.init(seed, _attr_branch(attr_dim), [(emb_dim, BRANCH_WIDTH, "identity")],
                            [(2 * BRANCH_WIDTH, 2 * BRANCH_WIDTH, "relu"),
                             (2 * BRANCH_WIDTH, n_classes, "identity")])


def init_teacher(attr_dim: int, n_classes: int, seed: int) -> TeacherModel:
    return TeacherModel.init(seed, _attr_branch(attr_dim), [],
                             [(BRANCH_WIDTH, n_classes, "identity")])


TEACHER_BATCH_SIZE, TEACHER_WEIGHT_DECAY = 64, 0.01


def teacher_train(attributes: Corpus, lr: float = 1e-3, epochs: int = 40, seed: int = 0):
    """AdamW training of the teacher on an attribute table alone, one class
    per entry of its `families`. Returns (teacher, accuracy trace per
    epoch). Raises NonFiniteError naming the epoch and batch at the first
    batch whose loss or gradient is not finite, before its update, or
    whose update leaves the parameters or the training-row logits so.
    """
    if not len(attributes):
        raise ValueError("no attribute rows to train on")
    if epochs < 1:
        raise ValueError("teacher_epochs must be >= 1")
    if not math.isfinite(lr) or lr <= 0.0:
        raise ValueError("teacher_lr must be > 0")
    teacher = init_teacher(attributes.dim, len(attributes.families), seed)
    # one copy of the table in the parameters' dtype, gathered from by every batch
    attrs, labels = attributes.vectors.astype(teacher.params.dtype), attributes.labels
    opt = adamw_init(teacher.params, lr=lr, weight_decay=TEACHER_WEIGHT_DECAY)
    trace = []
    n = len(attributes)
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 0x7EA, epoch]).permutation(n)
        for b, start in enumerate(range(0, n, TEACHER_BATCH_SIZE)):
            ix = order[start : start + TEACHER_BATCH_SIZE]
            with np.errstate(all="ignore"):  # checked before the step
                loss, grads = teacher.loss_and_grads(attrs[ix], None, labels[ix])
            checked_adamw_step(opt, teacher.params, loss, grads, f"epoch {epoch}, batch {b}")
        with np.errstate(all="ignore"):  # checked below
            logits = teacher.forward(attrs)
        if not np.isfinite(logits).all():
            raise NonFiniteError(f"epoch {epoch}, batch {b}: non-finite logits on the training "
                                 "rows after the update")
        trace.append(float(np.mean(logits.argmax(axis=1) == labels)))
    return teacher, trace
