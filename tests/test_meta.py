import numpy as np
import pytest

from cftmal.data import Corpus, DescriptionRecord, SyntheticSpec, generate_synthetic
from cftmal.distill import KdConfig, logits_loss
from cftmal.fusion import FusionModel, Linearization, batch_arrays, init_fusion, teacher_train
from cftmal.meta import (
    MamlConfig,
    build_pool,
    evaluate_few_shot,
    inner_adapt,
    maml_train,
    meta_step,
    sample_episode,
    second_order_meta_gradient,
    _kd_tuple,
    _support_batch,
    _support_passes,
    _task_meta_gradient,
)
from cftmal.numeric import NonFiniteError, param_views


def make_data(seed=0, n_families=3, per_family=40):
    spec = SyntheticSpec(n_families=n_families, records_per_family=per_family,
                         embedding_dim=8, attribute_dim=4, seed=seed)
    return generate_synthetic(spec)


def make_pool(seed=0, n_families=3, per_family=40):
    corpus, attrs = make_data(seed, n_families, per_family)
    return build_pool(corpus, attrs), len(corpus.families), corpus.dim


def test_build_pool_pairs_by_id():
    corpus, attrs = make_data()
    shuffled = Corpus([attrs.records[i] for i in np.random.default_rng(0).permutation(len(attrs))],
                      attrs.dim)
    pool = build_pool(corpus, shuffled)
    assert len(corpus.families) == 3
    assert pool.attrs.shape == (120, 4) and pool.embs.shape == (120, 8)
    assert set(pool.labels.tolist()) == {0, 1, 2}
    by_id = {a.id: a.vector for a in attrs.records}
    for i, r in enumerate(corpus.records):  # row i of every matrix is record i
        np.testing.assert_array_equal(pool.attrs[i], by_id[r.id])
        np.testing.assert_array_equal(pool.embs[i], r.vector)
        assert pool.labels[i] == corpus.families.index(r.family)
    # the embeddings and labels are the corpus's own arrays, not copies
    assert pool.embs is corpus.vectors and np.shares_memory(pool.embs, corpus.vectors)
    assert pool.labels is corpus.labels


def test_build_pool_missing_attribute():
    spec = SyntheticSpec(n_families=2, records_per_family=30, embedding_dim=8,
                         attribute_dim=4, seed=1)
    corpus, attrs = generate_synthetic(spec)
    with pytest.raises(ValueError, match="no attribute row"):
        build_pool(corpus, Corpus(attrs.records[:-1], attrs.dim))


def test_build_pool_rejects_family_mismatch():
    spec = SyntheticSpec(n_families=2, records_per_family=30, embedding_dim=8,
                         attribute_dim=4, seed=1)
    corpus, attrs = generate_synthetic(spec)
    records = list(attrs.records)
    other = next(f for f in corpus.families if f != records[3].family)
    records[3] = DescriptionRecord(records[3].id, other, records[3].vector)
    with pytest.raises(ValueError, match=f"record {records[3].id!r}: attribute row family "
                                         f"{other!r} != embedding family"):
        build_pool(corpus, Corpus(records, attrs.dim))


def pool_rows(pool, batch):
    """The pool row of each row of a gathered batch (synthetic embeddings are distinct)."""
    row_of = {e.tobytes(): i for i, e in enumerate(pool.embs)}
    assert len(row_of) == len(pool.embs)
    rows = [row_of[e.tobytes()] for e in batch.embs]
    for field in ("attrs", "embs", "labels"):
        np.testing.assert_array_equal(getattr(batch, field), getattr(pool, field)[rows])
    return rows


def test_sample_episode_structure_and_determinism():
    pool, _, _ = make_pool()
    cfg = MamlConfig(n_support=5, n_query=7)
    ep1 = sample_episode(pool, cfg, seed=42)
    ep2 = sample_episode(pool, cfg, seed=42)
    assert pool_rows(pool, ep1.support) == pool_rows(pool, ep2.support)
    assert pool_rows(pool, ep1.query) == pool_rows(pool, ep2.query)
    assert len(ep1.support.labels) == 15 and len(ep1.query.labels) == 21
    assert ep1.support.labels.tolist() == [0] * 5 + [1] * 5 + [2] * 5
    assert ep1.query.labels.tolist() == [0] * 7 + [1] * 7 + [2] * 7
    sup_rows = set(pool_rows(pool, ep1.support))
    qry_rows = set(pool_rows(pool, ep1.query))
    assert len(sup_rows) == 15 and len(qry_rows) == 21
    assert not sup_rows & qry_rows
    ep3 = sample_episode(pool, cfg, seed=43)
    assert pool_rows(pool, ep3.support) != pool_rows(pool, ep1.support)
    assert set(vars(ep1)) == {"support", "query"}


def reference_episode(corpus, attrs, cfg, seed):
    """The per-record draw: regroup the records by label in corpus order,
    one `rng.permutation` per label in ascending label order, each set
    stacked from the records' own vectors."""
    attr_by_id = {a.id: a.vector for a in attrs.records}
    by_label = {}
    for r, label in zip(corpus.records, corpus.labels.tolist()):
        by_label.setdefault(label, []).append((attr_by_id[r.id], r.vector, label))
    rng = np.random.default_rng([seed, 0xE915])
    need = cfg.n_support + cfg.n_query
    support, query = [], []
    for label in sorted(by_label):
        members = by_label[label]
        order = rng.permutation(len(members))
        support += [members[i] for i in order[: cfg.n_support]]
        query += [members[i] for i in order[cfg.n_support : need]]

    def stacked(part):
        return (np.stack([m[0] for m in part]), np.stack([m[1] for m in part]),
                np.array([m[2] for m in part], dtype=np.int64))

    return stacked(support), stacked(query)


@pytest.mark.parametrize("n_support, n_query", [(1, 1), (5, 7), (10, 20), (1, 29), (15, 15)])
def test_sample_episode_matches_the_per_record_draw(n_support, n_query):
    corpus, attrs = make_data(seed=3, n_families=4, per_family=30)
    pool = build_pool(corpus, attrs)
    assert np.shares_memory(pool.embs, corpus.vectors)
    cfg = MamlConfig(n_support=n_support, n_query=n_query)
    for seed in (0, 1, 42, 2**31 + 5):
        ep = sample_episode(pool, cfg, seed=seed)
        for got, want in zip((ep.support, ep.query), reference_episode(corpus, attrs, cfg, seed)):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


def test_meta_training_and_eval_stack_no_episode(monkeypatch):
    """Episodes are row gathers of the pool built once by build_pool."""
    pool, n_classes, d = make_pool(per_family=60)
    model = init_fusion(4, d, n_classes, seed=5)
    cfg = MamlConfig(inner_steps=1, tasks_per_meta_batch=2, meta_iterations=2, order="second")

    def no_stack(*args, **kwargs):
        raise AssertionError("np.stack called on the episode path")

    monkeypatch.setattr(np, "stack", no_stack)
    maml_train(model, pool, cfg)
    evaluate_few_shot(model, pool, cfg, n_episodes=2, support_sizes=[1, 5])


def test_sample_episode_insufficient_members():
    pool, _, _ = make_pool(per_family=30)
    cfg = MamlConfig(n_support=20, n_query=20)
    with pytest.raises(ValueError, match="episode needs"):
        sample_episode(pool, cfg, seed=0)


def test_inner_adapt_never_mutates_shared_init():
    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=0)
    before = [p.copy() for p in model.get_params()]
    ep = sample_episode(pool, MamlConfig(), seed=1)
    adapted, trace = inner_adapt(model, ep.support, inner_steps=3, inner_lr=0.05)
    for b, p in zip(before, model.get_params()):
        np.testing.assert_array_equal(b, p)
    assert len(trace) == 4
    assert trace[-1] < trace[0]  # adaptation reduces support loss
    assert any(
        not np.array_equal(a, p)
        for a, p in zip(adapted.get_params(), model.get_params())
    )


def count_passes(monkeypatch):
    """Count model forward passes: every loss_and_grads, linearize and
    query pass goes through forward_cache, an inference pass through the
    cache-free forward; hvp runs none of its own."""
    calls = []
    for name in ("forward_cache", "forward"):
        def counted(self, *args, real=getattr(FusionModel, name), **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(FusionModel, name, counted)
    return calls


@pytest.mark.parametrize("order", ["first", "second"])
def test_task_does_one_query_pass(monkeypatch, order):
    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=2)
    cfg = MamlConfig(order=order, inner_steps=3, inner_lr=0.05)
    ep = sample_episode(pool, cfg, seed=5)
    calls = count_passes(monkeypatch)
    _task_meta_gradient(model, ep, cfg, None, None)
    assert len(calls) == cfg.inner_steps + 1  # an HVP reuses its step's gradient-pass forward


# The second-order task as it stood when each HVP ran its own forward and
# loss at its support point, kept op for op: the live task reuses the
# gradient pass's and must match it bit for bit.


def fresh_pass_task_meta_gradient(model, episode, cfg, teacher, kd_cfg):
    s_attrs, s_embs, s_labels, kd_inner = _support_batch(episode.support, teacher, kd_cfg)
    q_attrs, q_embs, q_labels = episode.query
    kd_outer = _kd_tuple(teacher, kd_cfg, q_attrs, where="outer")
    query = {}

    def support_grad(params):
        _, g = model.bound_to(params).loss_and_grads(s_attrs, s_embs, s_labels, kd=kd_inner)
        return g

    def support_hvp(params, vec):
        bound = model.bound_to(params)
        logits, cache = bound.forward_cache(s_attrs, s_embs)
        loss, gl = logits_loss(logits, s_labels, kd_inner)
        return bound.hvp(Linearization(loss, logits, cache, gl, kd_inner), vec)

    def query_grad(params):
        query["loss"], g, query["logits"] = model.bound_to(params).loss_grads_logits(
            q_attrs, q_embs, q_labels, kd=kd_outer)
        return g

    meta_grad, _ = second_order_meta_gradient(
        model.params, support_grad, support_hvp, query_grad, cfg.inner_steps, cfg.inner_lr)
    q_acc = float(np.mean(query["logits"].argmax(axis=1) == q_labels))
    return meta_grad, query["loss"], q_acc


@pytest.mark.parametrize("apply_in", [None, "inner", "outer", "both"], ids=lambda a: a or "no-kd")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_second_order_task_is_bit_identical_to_fresh_support_passes(dtype, apply_in):
    """FUS1 and its float64 twin, KD off and in each place it applies."""
    corpus, attrs = make_data()
    pool = build_pool(corpus, attrs)
    model = init_fusion(4, corpus.dim, len(corpus.families), seed=2)
    model = model.bound_to(model.params.astype(dtype))
    teacher = kd_cfg = None
    if apply_in is not None:
        teacher, _ = teacher_train(attrs, epochs=2)
        kd_cfg = KdConfig(alpha=0.3, apply_in=apply_in)
    cfg = MamlConfig(order="second", inner_steps=3, inner_lr=0.05)
    ep = sample_episode(pool, cfg, seed=5)
    got = _task_meta_gradient(model, ep, cfg, teacher, kd_cfg)
    want = fresh_pass_task_meta_gradient(model, ep, cfg, teacher, kd_cfg)
    assert got[0].dtype == want[0].dtype == dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


def test_support_hvp_takes_only_the_last_support_point():
    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=2)
    ep = sample_episode(pool, MamlConfig(), seed=5)
    support_grad, support_hvp = _support_passes(model, _support_batch(ep.support, None, None))
    theta0 = model.params
    theta1 = theta0 - 0.05 * support_grad(theta0)
    support_grad(theta1)
    vec = np.ones_like(theta0)
    for wrong in (theta0, theta1.copy()):  # below the top, and equal but not the same array
        with pytest.raises(RuntimeError, match="not the last support point linearized"):
            support_hvp(wrong, vec)
    support_hvp(theta1, vec)
    support_hvp(theta0, vec)
    with pytest.raises(RuntimeError, match="not the last support point linearized"):
        support_hvp(theta0, vec)  # nothing is left


def test_meta_step_refuses_a_non_finite_meta_gradient():
    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=2)
    model.params[0] = 1e30  # a first-layer weight: finite logits, an overflowing inner step
    before = model.params.copy()
    cfg = MamlConfig(inner_steps=1, inner_lr=0.05)
    with pytest.raises(NonFiniteError, match="^non-finite meta-gradient$"), np.errstate(all="ignore"):
        meta_step(model, [sample_episode(pool, cfg, seed=5)], cfg)
    assert model.params.tobytes() == before.tobytes()


def test_eval_episode_skips_final_support_pass(monkeypatch):
    pool, n_classes, d = make_pool(per_family=60)
    model = init_fusion(4, d, n_classes, seed=6)
    cfg = MamlConfig(inner_steps=3, inner_lr=0.05, seed=10)
    calls = count_passes(monkeypatch)
    evaluate_few_shot(model, pool, cfg, n_episodes=2)
    assert len(calls) == 2 * (cfg.inner_steps + 1)


def test_first_order_meta_gradient_is_adapted_query_gradient():
    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=2)
    cfg = MamlConfig(order="first", inner_steps=3, inner_lr=0.05,
                     tasks_per_meta_batch=2)
    episodes = [sample_episode(pool, cfg, seed=s) for s in (5, 6)]
    # recompute the expected mean by hand
    expected = None
    for ep in episodes:
        adapted, _ = inner_adapt(model, ep.support, cfg.inner_steps, cfg.inner_lr)
        attrs, embs, labels = batch_arrays(ep.query)
        _, g = adapted.loss_and_grads(attrs, embs, labels)
        expected = g if expected is None else expected + g
    expected = expected / len(episodes)

    got = None
    for ep in episodes:
        g, _, _ = _task_meta_gradient(model, ep, cfg, None, None)
        got = g if got is None else got + g
    got = got / len(episodes)
    assert np.abs(expected - got).max() < 1e-10


def test_second_order_meta_gradient_matches_fd_on_quadratic():
    # support loss: 0.5 theta' A theta - b' theta ; query loss: 0.5 |theta - c|^2
    a_mat = np.array([[2.0, 0.4], [0.4, 1.0]])
    b = np.array([0.3, -0.2])
    c = np.array([1.0, 2.0])
    theta0 = [np.array([0.5]), np.array([-1.0])]

    def vec(theta):
        return np.array([theta[0][0], theta[1][0]])

    def support_grad(theta):
        g = a_mat @ vec(theta) - b
        return [np.array([g[0]]), np.array([g[1]])]

    def support_hvp(theta, v):
        hv = a_mat @ np.array([v[0][0], v[1][0]])
        return [np.array([hv[0]]), np.array([hv[1]])]

    def query_grad(theta):
        g = vec(theta) - c
        return [np.array([g[0]]), np.array([g[1]])]

    inner_steps, inner_lr = 4, 0.1
    meta_grad, theta_k = second_order_meta_gradient(
        theta0, support_grad, support_hvp, query_grad, inner_steps, inner_lr
    )

    def meta_objective(t0):
        theta = [np.array([t0[0]]), np.array([t0[1]])]
        for _ in range(inner_steps):
            g = support_grad(theta)
            theta = [p - inner_lr * gi for p, gi in zip(theta, g)]
        return 0.5 * np.sum((vec(theta) - c) ** 2)

    h = 1e-6
    base = np.array([0.5, -1.0])
    fd = np.zeros(2)
    for i in range(2):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (meta_objective(up) - meta_objective(down)) / (2 * h)
    got = np.array([meta_grad[0][0], meta_grad[1][0]])
    assert np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-6


def test_second_order_on_model_matches_fd():
    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=3)
    model = model.bound_to(model.params.astype(np.float64))  # FD needs float64
    cfg = MamlConfig(order="second", inner_steps=2, inner_lr=0.05)
    ep = sample_episode(pool, cfg, seed=7)

    meta_grad, _, _ = _task_meta_gradient(model, ep, cfg, None, None)

    s_attrs, s_embs, s_labels = batch_arrays(ep.support)
    q_attrs, q_embs, q_labels = batch_arrays(ep.query)

    def meta_objective():
        work = model.clone()
        for _ in range(cfg.inner_steps):
            _, g = work.loss_and_grads(s_attrs, s_embs, s_labels)
            work.params -= cfg.inner_lr * g
        loss, _ = work.loss_and_grads(q_attrs, q_embs, q_labels)
        return loss

    # spot-check a handful of coordinates per parameter array
    rng = np.random.default_rng(8)
    h = 1e-5
    params = model.get_params()
    meta_grads = param_views(model.layers, meta_grad)
    checked = 0
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + h
            up = meta_objective()
            flat[i] = old - h
            down = meta_objective()
            flat[i] = old
            fd = (up - down) / (2 * h)
            got = meta_grads[pi].reshape(-1)[i]
            assert abs(got - fd) < 1e-3 * max(1.0, abs(fd))
            checked += 1
    assert checked >= 20


def test_meta_step_updates_and_reports():
    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=4)
    cfg = MamlConfig(inner_steps=2, inner_lr=0.05, meta_lr=1e-3,
                     tasks_per_meta_batch=2)
    before = [p.copy() for p in model.get_params()]
    episodes = [sample_episode(pool, cfg, seed=s) for s in (1, 2)]
    state, loss, acc = meta_step(model, episodes, cfg)
    assert any(
        not np.array_equal(b, p) for b, p in zip(before, model.get_params())
    )
    assert np.isfinite(loss) and 0.0 <= acc <= 1.0
    with pytest.raises(ValueError):
        meta_step(model, [], cfg)


def test_maml_train_improves_query_accuracy():
    pool, n_classes, d = make_pool(per_family=60)
    model = init_fusion(4, d, n_classes, seed=5)
    cfg = MamlConfig(inner_steps=3, inner_lr=0.05, meta_lr=2e-3,
                     tasks_per_meta_batch=2, meta_iterations=12, seed=9)
    model, history = maml_train(model, pool, cfg)
    assert len(history) == 12
    first = np.mean([h["query_accuracy"] for h in history[:3]])
    last = np.mean([h["query_accuracy"] for h in history[-3:]])
    assert last > first


def test_evaluate_few_shot_rows():
    pool, n_classes, d = make_pool(per_family=60)
    model = init_fusion(4, d, n_classes, seed=6)
    cfg = MamlConfig(inner_steps=2, inner_lr=0.05, seed=10)
    rows = evaluate_few_shot(model, pool, cfg, n_episodes=3, support_sizes=[5, 10])
    assert [r["support_size"] for r in rows] == [5, 10]
    for r in rows:
        assert r["n_episodes"] == 3
        assert 0.0 <= r["mean_accuracy"] <= 1.0
    again = evaluate_few_shot(model, pool, cfg, n_episodes=3, support_sizes=[5, 10])
    assert [r["mean_accuracy"] for r in rows] == [r["mean_accuracy"] for r in again]


def test_maml_config_validation():
    with pytest.raises(ValueError):
        MamlConfig(inner_steps=0).validate()
    with pytest.raises(ValueError):
        MamlConfig(inner_lr=0.0).validate()
    with pytest.raises(ValueError):
        MamlConfig(order="third").validate()
    for name in ("n_support", "n_query"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            MamlConfig(**{name: 0}).validate()
    for name, bound, values in [("inner_lr", "> 0", (-1.0, np.nan, np.inf)),
                                ("meta_lr", ">= 0", (-1.0, np.nan, np.inf))]:
        for value in values:
            with pytest.raises(ValueError, match=f"{name} must be {bound}"):
                MamlConfig(**{name: value}).validate()
    MamlConfig(meta_lr=0.0).validate()


def test_layers_stay_views_of_the_flat_parameter_vector(tmp_path):
    def assert_bound(model):
        assert model.params.shape == (sum(p.size for p in model.get_params()),)
        for layer in model.layers:
            assert np.shares_memory(layer.weights, model.params)
            assert np.shares_memory(layer.bias, model.params)

    pool, n_classes, d = make_pool()
    model = init_fusion(4, d, n_classes, seed=11)
    assert_bound(model)
    assert_bound(model.clone())
    assert_bound(FusionModel(model.attr_branch, model.emb_branch, *model.head))
    assert_bound(model)  # building a model from another's layers leaves them bound
    model.save(tmp_path / "m.fus1")
    assert_bound(FusionModel.load(tmp_path / "m.fus1"))
    attrs = Corpus([DescriptionRecord(f"r{i}", f"f{label}", a)
                    for i, (a, label) in enumerate(zip(pool.attrs, pool.labels.tolist()))],
                   4, families=["f0", "f1", "f2"])
    teacher, _ = teacher_train(attrs, epochs=1)
    assert_bound(teacher)
    cfg = MamlConfig(inner_steps=1, inner_lr=0.05, tasks_per_meta_batch=1)
    before = model.params.copy()
    meta_step(model, [sample_episode(pool, cfg, seed=1)], cfg)
    assert_bound(model)
    assert not np.array_equal(before, model.params)
