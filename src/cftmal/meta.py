"""MAML episodic training and few-shot evaluation.

The inner loop runs plain SGD on the support loss; the outer loop applies
AdamW to the shared initialization using either the first-order
approximation (query gradient at the adapted parameters) or the exact
second-order meta-gradient, obtained by reverse accumulation through the
inner steps with Hessian-vector products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Corpus, attribute_rows, write_csv
from .numeric import NonFiniteError, ShapeError, adamw_init, adamw_step


class Batch(NamedTuple):
    """Row-aligned (attrs, embs, labels) matrices: a MAML pool, or the
    support or query set gathered from its rows."""

    attrs: np.ndarray
    embs: np.ndarray
    labels: np.ndarray

    def take(self, rows) -> "Batch":
        return Batch(self.attrs[rows], self.embs[rows], self.labels[rows])


@dataclass
class Episode:
    support: Batch
    query: Batch


@dataclass
class MamlConfig:
    inner_steps: int = 5
    inner_lr: float = 0.01
    meta_lr: float = 1e-3
    tasks_per_meta_batch: int = 4
    meta_iterations: int = 40
    order: str = "first"  # or "second"
    n_support: int = 10
    n_query: int = 20
    seed: int = 0

    def validate(self) -> None:
        for name in ("inner_steps", "n_support", "n_query"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not math.isfinite(self.inner_lr) or self.inner_lr <= 0.0:
            raise ValueError("inner_lr must be > 0")
        if not math.isfinite(self.meta_lr) or self.meta_lr < 0.0:
            raise ValueError("meta_lr must be >= 0")
        if self.order not in ("first", "second"):
            raise ValueError(f"unknown order {self.order!r}")


def build_pool(corpus: Corpus, attributes: Corpus) -> Batch:
    """Gather the attribute row of each corpus row by record id: `embs` and
    `labels` are the corpus's own arrays. An attribute row must carry its
    record's family."""
    return Batch(attributes.vectors[attribute_rows(corpus, attributes)],
                 corpus.vectors, corpus.labels)


def check_episode_fits(where: str, corpus: Corpus, need: int) -> None:
    """Raise "<where>: family ..." unless each family has the `need` rows of an episode."""
    counts = np.bincount(corpus.labels, minlength=len(corpus.families))
    for fam, count in zip(corpus.families, counts.tolist()):
        if count < need:
            raise ValueError(f"{where}: family {fam!r} has {count} records, episode needs {need}")


def sample_episode(pool: Batch, cfg: MamlConfig, seed: int) -> Episode:
    """Uniform without-replacement support/query draw per family: one
    permutation of each label's rows, labels in ascending order."""
    rng = np.random.default_rng([seed, 0xE915])
    need = cfg.n_support + cfg.n_query
    support, query = [], []
    for lbl in np.unique(pool.labels).tolist():
        members = np.flatnonzero(pool.labels == lbl)
        if len(members) < need:
            raise ValueError(
                f"class {lbl} has {len(members)} samples, episode needs {need}"
            )
        drawn = members[rng.permutation(len(members))]
        support.append(drawn[: cfg.n_support])
        query.append(drawn[cfg.n_support : need])
    return Episode(pool.take(np.concatenate(support)), pool.take(np.concatenate(query)))


def _support_batch(support: Batch, teacher, kd_cfg):
    """A support set's (attrs, embs, labels) and its inner-loop KD."""
    return (*support, _kd_tuple(teacher, kd_cfg, support.attrs, where="inner"))


def _adapt(model, batch, inner_steps: int, inner_lr: float):
    """SGD-adapt a copy of the model on a _support_batch.

    Returns (adapted model, support loss before each step): one pass per
    step and none after the last.
    """
    attrs, embs, labels, kd = batch
    adapted = model.clone()
    losses = []
    for _ in range(inner_steps):
        loss, grads = adapted.loss_and_grads(attrs, embs, labels, kd=kd)
        losses.append(loss)
        grads *= inner_lr
        adapted.params -= grads
    return adapted, losses


def inner_adapt(model, support, inner_steps: int, inner_lr: float,
                teacher=None, kd_cfg=None):
    """SGD-adapt a copy of the model on the support set.

    Returns (adapted model, support-loss trace of length inner_steps + 1).
    The input model is left untouched.
    """
    batch = _support_batch(support, teacher, kd_cfg)
    adapted, trace = _adapt(model, batch, inner_steps, inner_lr)
    return adapted, trace + [adapted.linearize(*support, kd=batch[-1]).loss]


def _kd_tuple(teacher, kd_cfg, attrs, where: str):
    if teacher is None or kd_cfg is None or kd_cfg.alpha == 0.0:
        return None
    if kd_cfg.apply_in not in (where, "both"):
        return None
    return teacher.forward(attrs), kd_cfg.alpha, kd_cfg.kd_temperature


def second_order_meta_gradient(theta0, support_grad_fn, support_hvp_fn,
                               query_grad_fn, inner_steps: int, inner_lr: float):
    """Exact meta-gradient of query_loss(theta_K) where
    theta_{t+1} = theta_t - inner_lr * support_grad(theta_t).

    Reverse accumulation: v <- v - inner_lr * H_support(theta_t) v, seeded
    with the query gradient at the adapted parameters. Each update is one
    array op; a list of equal-shape arrays counts as one array.
    """
    thetas = [theta0]
    for _ in range(inner_steps):
        thetas.append(np.subtract(thetas[-1], np.multiply(inner_lr, support_grad_fn(thetas[-1]))))
    v = query_grad_fn(thetas[-1])
    for t in range(inner_steps - 1, -1, -1):
        v = np.subtract(v, np.multiply(inner_lr, support_hvp_fn(thetas[t], v)))
    return v, thetas[-1]


def _support_passes(model, support):
    """(support_grad, support_hvp) for `second_order_meta_gradient` on a
    _support_batch: each support pass runs once.

    support_grad(theta) linearizes the support loss at theta and keeps the
    linearization; support_hvp(theta, v) takes the last one kept, which
    must be theta's. second_order_meta_gradient visits theta_0 ...
    theta_{K-1} and then the same arrays in reverse, so each HVP reuses
    the forward and logits gradient of its step's gradient pass.
    """
    attrs, embs, labels, kd = support
    linearized = []  # (theta, model bound to it, its linearization), last on top

    def support_grad(params):
        bound = model.bound_to(params)
        lin = bound.linearize(attrs, embs, labels, kd=kd)
        linearized.append((params, bound, lin))
        return bound.backward(lin.cache, lin.grad_logits)

    def support_hvp(params, vec):
        if not linearized or linearized[-1][0] is not params:
            raise RuntimeError("support_hvp: params are not the last support point linearized")
        _, bound, lin = linearized.pop()
        return bound.hvp(lin, vec)

    return support_grad, support_hvp


def _task_meta_gradient(model, episode: Episode, cfg: MamlConfig, teacher, kd_cfg):
    support = _support_batch(episode.support, teacher, kd_cfg)
    q_attrs, q_embs, q_labels = episode.query
    kd_outer = _kd_tuple(teacher, kd_cfg, q_attrs, where="outer")
    query = []  # the query pass's (loss, logits) at the adapted parameters

    def query_grad(params):
        bound = model.bound_to(params)
        lin = bound.linearize(q_attrs, q_embs, q_labels, kd=kd_outer)
        query.append((lin.loss, lin.logits))  # not its caches, freed once backward has read them
        return bound.backward(lin.cache, lin.grad_logits)

    if cfg.order == "second":
        meta_grad, _ = second_order_meta_gradient(
            model.params, *_support_passes(model, support), query_grad,
            cfg.inner_steps, cfg.inner_lr,
        )
    else:
        adapted, _ = _adapt(model, support, cfg.inner_steps, cfg.inner_lr)
        meta_grad = query_grad(adapted.params)
    [(q_loss, logits)] = query
    return meta_grad, q_loss, float(np.mean(logits.argmax(axis=1) == q_labels))


def meta_step(model, episodes, cfg: MamlConfig, opt_state=None,
              teacher=None, kd_cfg=None):
    """One outer-loop update over a meta-batch of episodes.

    Mutates the model parameters via AdamW; returns (opt_state, mean query
    loss, mean query accuracy). A meta-gradient that is not finite raises
    NonFiniteError and leaves the parameters as they were.
    """
    cfg.validate()
    if not episodes:
        raise ValueError("meta_step needs at least one episode")
    if opt_state is None:
        opt_state = adamw_init(model.params, lr=cfg.meta_lr)
    grads = None
    losses, accs = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for ep in episodes:  # fixed task order keeps the reduction deterministic
            g, q_loss, q_acc = _task_meta_gradient(model, ep, cfg, teacher, kd_cfg)
            if grads is None:
                grads = g  # a new vector each task, so summed into in place
            else:
                grads += g
            losses.append(q_loss)
            accs.append(q_acc)
    grads /= len(episodes)
    if not np.isfinite(grads).all():
        raise NonFiniteError("non-finite meta-gradient")
    adamw_step(opt_state, model.params, grads)
    return opt_state, float(np.mean(losses)), float(np.mean(accs))


def maml_train(model, pool, cfg: MamlConfig, teacher=None, kd_cfg=None):
    """Full episodic training loop; returns (model, per-iteration metrics).

    With a teacher and kd_cfg, the teacher's soft labels are mixed into
    the inner/outer losses per kd_cfg.apply_in.
    """
    cfg.validate()
    if cfg.meta_iterations < 1:
        raise ValueError("meta_iterations must be >= 1")
    if kd_cfg is not None:
        kd_cfg.validate()
        if teacher is not None and teacher.n_classes != model.n_classes:
            raise ShapeError(
                f"class count mismatch: teacher {teacher.n_classes}, "
                f"student {model.n_classes}"
            )
    opt_state = None
    history = []
    for it in range(cfg.meta_iterations):
        episodes = [
            sample_episode(pool, cfg, seed=_derive_seed(cfg.seed, it, t))
            for t in range(cfg.tasks_per_meta_batch)
        ]
        try:
            opt_state, q_loss, q_acc = meta_step(
                model, episodes, cfg, opt_state, teacher=teacher, kd_cfg=kd_cfg
            )
        except NonFiniteError as exc:
            raise NonFiniteError(f"meta-iteration {it}: {exc}") from exc
        history.append({"iteration": it, "query_loss": q_loss, "query_accuracy": q_acc})
    return model, history


def _derive_seed(seed: int, *parts) -> int:
    out = np.random.SeedSequence([seed, *parts]).generate_state(1)[0]
    return int(out)


def evaluate_few_shot(model, pool, cfg: MamlConfig, n_episodes: int,
                      support_sizes=None, teacher=None, kd_cfg=None):
    """Adapt-and-measure over seeded episodes from the meta-test pool.

    Returns rows of {support_size, n_episodes, mean_accuracy, std_accuracy,
    seed}, one per support size. Raises NonFiniteError if an adapted
    model's query logits are not all finite.
    """
    cfg.validate()
    if n_episodes < 1:
        raise ValueError("episodes must be >= 1")
    if support_sizes is None:
        support_sizes = [cfg.n_support]
    if any(size < 1 for size in support_sizes):
        raise ValueError("support_sizes must be >= 1")
    rows = []
    for size in support_sizes:
        ep_cfg = MamlConfig(**{**cfg.__dict__, "n_support": size})
        accs = []
        for e in range(n_episodes):
            ep = sample_episode(pool, ep_cfg, seed=_derive_seed(cfg.seed, 0xEFA1, size, e))
            attrs, embs, labels = ep.query
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                adapted, _ = _adapt(
                    model, _support_batch(ep.support, teacher, kd_cfg),
                    cfg.inner_steps, cfg.inner_lr,
                )
                logits = adapted.forward(attrs, embs)
            if not np.isfinite(logits).all():
                raise NonFiniteError(f"{size}-shot episode {e}: non-finite query logits "
                                     f"after {cfg.inner_steps} inner steps")
            accs.append(float(np.mean(logits.argmax(axis=1) == labels)))
        rows.append({
            "support_size": size,
            "n_episodes": n_episodes,
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
            "seed": cfg.seed,
        })
    return rows


def eval_report_to_csv(path, rows) -> None:
    write_csv(path, ["support_size", "n_episodes", "mean_accuracy", "std_accuracy", "seed"], (
        [r["support_size"], r["n_episodes"], repr(r["mean_accuracy"]), repr(r["std_accuracy"]),
         r["seed"]]
        for r in rows
    ))
