import warnings

import numpy as np
import pytest

from cftmal import cft
from cftmal.cft import (
    ADP1_MAGIC,
    AdapterHead,
    CftConfig,
    _info_nce,
    info_nce,
    init_adapter,
    refine,
    train_adapter,
)
from cftmal.data import Corpus, DescriptionRecord, FormatError
from cftmal.fusion import PARAM_DTYPE
from cftmal.mining import MiningConfig, build_all_samples, mine_all, select_positives
from cftmal.numeric import (
    NonFiniteError,
    ShapeError,
    adamw_init,
    adamw_step,
    bind_params,
    chain_backward,
    chain_forward,
    init_dense,
    rebind_params,
)
from cftmal.serial import write_layers
from cftmal.similarity import ZeroNormWarning, normalize_rows


def test_info_nce_uniform_similarities_is_log_k():
    # all candidate similarities equal -> softmax is uniform over 9 entries
    d = 6
    anchor = np.zeros(d)
    anchor[0] = 1.0
    positive = np.zeros(d)
    positive[1] = 1.0  # cos(anchor, positive) = 0
    negatives = []
    for i in range(2, 5):
        v = np.zeros(d)
        v[i] = 1.0
        negatives.append(v)
    negatives += [-n for n in negatives[:3]]
    negatives += [negatives[0] * 2.0, negatives[1] * 0.5]  # still cos 0 to anchor
    loss, *_ = info_nce(anchor, positive, negatives[:8], tau=0.07)
    assert loss == pytest.approx(np.log(9.0), abs=1e-12)


def test_info_nce_separated_case_is_zero():
    anchor = np.array([1.0, 0.0])
    positive = np.array([2.0, 0.0])  # cos = 1
    negatives = [np.array([-1.0, 0.0])] * 8  # cos = -1
    loss, *_ = info_nce(anchor, positive, negatives, tau=0.07)
    assert loss < 1e-9


def test_info_nce_gradients_match_fd():
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(5):
        anchor = rng.standard_normal(5)
        positive = rng.standard_normal(5)
        negatives = [rng.standard_normal(5) for _ in range(4)]

        def loss_at(a=None, p=None, negs=None):
            return info_nce(
                anchor if a is None else a,
                positive if p is None else p,
                negatives if negs is None else negs,
                tau=0.07,
            )[0]

        loss, ga, gp, gns = info_nce(anchor, positive, negatives, tau=0.07)
        for vec, grad, mk in [
            (anchor, ga, lambda v: loss_at(a=v)),
            (positive, gp, lambda v: loss_at(p=v)),
        ]:
            fd = np.zeros_like(vec)
            for i in range(vec.size):
                up, down = vec.copy(), vec.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (mk(up) - mk(down)) / (2 * h)
            assert np.abs(fd - grad).max() < 1e-4 * max(1.0, np.abs(fd).max())
        for j, gn in enumerate(gns):
            fd = np.zeros_like(negatives[j])
            for i in range(fd.size):
                up = [n.copy() for n in negatives]
                down = [n.copy() for n in negatives]
                up[j][i] += h
                down[j][i] -= h
                fd[i] = (loss_at(negs=up) - loss_at(negs=down)) / (2 * h)
            assert np.abs(fd - gn).max() < 1e-4 * max(1.0, np.abs(fd).max())


def test_info_nce_stable_at_low_temperature():
    anchor = np.array([1.0, 0.0])
    positive = np.array([1.0, 0.0])
    negatives = [np.array([-1.0, 0.0])] * 8
    loss, ga, gp, gns = info_nce(anchor, positive, negatives, tau=1e-3)
    assert np.isfinite(loss)
    assert all(np.isfinite(g).all() for g in [ga, gp] + gns)


def test_info_nce_zero_norm_warns():
    with pytest.warns(ZeroNormWarning):
        loss, *_ = info_nce(np.zeros(3), np.ones(3), [np.ones(3)], tau=0.07)
    assert np.isfinite(loss)


def test_info_nce_validation():
    with pytest.raises(ValueError):
        info_nce(np.ones(3), np.ones(3), [], tau=0.07)
    for tau in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be > 0"):
            info_nce(np.ones(3), np.ones(3), [np.ones(3)], tau=tau)
    with pytest.raises(ShapeError):
        info_nce(np.ones(3), np.ones(4), [np.ones(3)], tau=0.07)


def per_anchor_in_batch(za, zp, zn, tau):
    """Reference in-batch InfoNCE: anchor i scored, as a batch of one, against
    [zp[i], *every negative]."""
    bsz, k, d = zn.shape
    flat_n = zn.reshape(bsz * k, d)
    ga, gp, gn = np.zeros_like(za), np.zeros_like(zp), np.zeros_like(flat_n)
    total = 0.0
    for i in range(bsz):
        loss_i, ga_i, gp_i, gn_i = _info_nce(za[i][None], zp[i][None], flat_n[None], tau,
                                             in_batch=False)
        total += loss_i
        ga[i] = ga_i[0]
        gp[i] = gp_i[0]
        gn += gn_i[0]
    return total / bsz, ga / bsz, gp / bsz, gn.reshape(bsz, k, d) / bsz


def frozen_info_nce_in_batch(za, zp, zn, tau):
    """The in-batch kernel as it stood before the two denominators shared one
    kernel, kept op for op: `_info_nce(..., in_batch=True)` must match it bit
    for bit."""
    bsz, k, dd = zn.shape
    a_hat, a_norm, a_zero = normalize_rows(za)
    p_hat, p_norm, p_zero = normalize_rows(zp)
    n_hat, n_norm, n_zero = normalize_rows(zn.reshape(bsz * k, dd))
    if a_zero.any() or p_zero.any() or n_zero.any():
        warnings.warn("zero-norm vector in info_nce", ZeroNormWarning)
    s_pos = np.einsum("bd,bd->b", a_hat, p_hat)
    s_neg = a_hat @ n_hat.T
    s = np.concatenate([s_pos[:, None], s_neg], axis=1)
    logits = s / tau
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    p = e / e.sum(axis=1, keepdims=True)
    loss = float(np.mean(-np.log(p[:, 0])))
    w = p
    w[:, 0] -= 1.0
    w /= tau
    w[a_zero] = 0.0
    w_pos, w_neg = w[:, 0:1], w[:, 1:]
    w_pos[p_zero] = 0.0
    w_neg[:, n_zero] = 0.0
    ga = w_pos * p_hat + w_neg @ n_hat - (w * s).sum(axis=1, keepdims=True) * a_hat
    ga /= np.where(a_zero[:, None], 1.0, a_norm)
    gp = w_pos * (a_hat - s_pos[:, None] * p_hat) / np.where(p_zero[:, None], 1.0, p_norm)
    gn = w_neg.T @ a_hat - (w_neg * s_neg).sum(axis=0)[:, None] * n_hat
    gn /= np.where(n_zero[:, None], 1.0, n_norm)
    scale = 1.0 / bsz
    return loss, ga * scale, gp * scale, gn.reshape(bsz, k, dd) * scale


def frozen_info_nce_batch(anchors, candidates, tau):
    """The in-sample kernel as it stood before the two denominators shared
    one kernel, kept op for op: candidate 0 of each anchor is its positive.
    Returns (loss, grad_anchors, grad_candidates)."""
    b, c, d = candidates.shape
    a_hat, a_norm, a_zero = normalize_rows(anchors)
    c_hat, c_norm, c_zero = normalize_rows(candidates)
    if a_zero.any() or c_zero.any():
        warnings.warn("zero-norm vector in info_nce", ZeroNormWarning)
    s = np.einsum("bd,bcd->bc", a_hat, c_hat)
    logits = s / tau
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    p = e / e.sum(axis=1, keepdims=True)
    loss = float(np.mean(-np.log(p[:, 0])))
    w = p.copy()
    w[:, 0] -= 1.0
    w /= tau * b
    w = np.where(c_zero, 0.0, w)
    w = np.where(a_zero[:, None], 0.0, w)
    grad_a = np.einsum("bc,bcd->bd", w, c_hat) - (w * s).sum(axis=1, keepdims=True) * a_hat
    grad_a = np.where(a_zero[:, None], 0.0, grad_a / np.where(a_norm == 0.0, 1.0, a_norm))
    grad_c = w[..., None] * (a_hat[:, None, :] - s[..., None] * c_hat)
    grad_c = grad_c / np.where(c_norm == 0.0, 1.0, c_norm)
    return loss, grad_a, grad_c


def in_batch_inputs(bsz, k, d, seed=0, zero_rows=False):
    """Random (za, zp, zn); with `zero_rows`, the last positive, the last
    negative of anchor 0 and, given two anchors or more, anchor 1 are zero."""
    rng = np.random.default_rng([seed, bsz, k, d])
    za, zp, zn = (rng.standard_normal((bsz, d)), rng.standard_normal((bsz, d)),
                  rng.standard_normal((bsz, k, d)))
    if zero_rows:
        zp[-1] = 0.0
        zn[0, -1] = 0.0
        if bsz > 1:
            za[1] = 0.0
    return za, zp, zn


def assert_close_rel(got, want, rtol=1e-12):
    """Equal to `rtol` relative to the largest magnitude in `want`."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("bsz, k, d", [(1, 1, 3), (1, 8, 16), (4, 3, 7), (32, 8, 128)])
def test_info_nce_in_batch_matches_per_anchor_loop(bsz, k, d):
    za, zp, zn = in_batch_inputs(bsz, k, d)
    for tau in (0.07, 1.0):
        got = _info_nce(za, zp, zn, tau, in_batch=True)
        want = per_anchor_in_batch(za, zp, zn, tau)
        for g, w in zip(got, want):
            assert_close_rel(g, w)


@pytest.mark.parametrize("zero_rows", [False, True], ids=["dense", "zero-rows"])
@pytest.mark.parametrize("bsz, k, d", [(1, 1, 3), (1, 8, 16), (4, 3, 7), (32, 8, 128)])
def test_info_nce_in_batch_is_bit_identical_to_the_frozen_kernel(bsz, k, d, zero_rows):
    za, zp, zn = in_batch_inputs(bsz, k, d, seed=3, zero_rows=zero_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        for tau in (0.07, 1.0):
            got = _info_nce(za, zp, zn, tau, in_batch=True)
            want = frozen_info_nce_in_batch(za, zp, zn, tau)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("zero_rows", [False, True], ids=["dense", "zero-rows"])
@pytest.mark.parametrize("bsz, k, d", [(1, 1, 3), (4, 3, 7), (32, 8, 128)])
def test_info_nce_in_sample_matches_the_frozen_kernel(bsz, k, d, zero_rows):
    za, zp, zn = in_batch_inputs(bsz, k, d, seed=4, zero_rows=zero_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        for tau in (0.07, 1.0):
            got = _info_nce(za, zp, zn, tau, in_batch=False)
            loss, ga, gc = frozen_info_nce_batch(za, np.concatenate([zp[:, None], zn], axis=1), tau)
            for g, w in zip(got, (loss, ga, gc[:, 0], gc[:, 1:])):
                assert_close_rel(g, w)


def frozen_info_nce_softmax(s, tau):
    """`_info_nce`'s four softmax lines as they stood before it called
    `numeric.softmax`, kept verbatim."""
    logits = s / tau
    logits -= logits.max(axis=1, keepdims=True)  # stabilization (mandatory at tau=0.07)
    e = np.exp(logits)
    p = e / e.sum(axis=1, keepdims=True)
    return p


@pytest.mark.parametrize("zero_rows", [False, True], ids=["dense", "zero-rows"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_batch", [False, True], ids=["in-sample", "in-batch"])
def test_info_nce_softmax_is_bit_identical_to_its_frozen_lines(monkeypatch, in_batch, dtype,
                                                                zero_rows):
    za, zp, zn = (z.astype(dtype) for z in in_batch_inputs(8, 3, 16, seed=5, zero_rows=zero_rows))
    s = np.random.default_rng(6).uniform(-1.0, 1.0, (8, 25)).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        for tau in (0.07, 1.0):
            want_p = frozen_info_nce_softmax(s, tau)
            assert cft.softmax(s / tau).tobytes() == want_p.tobytes() and want_p.dtype == dtype
            got = _info_nce(za, zp, zn, tau, in_batch=in_batch)
            with monkeypatch.context() as m:
                # the frozen lines take s / tau, divided already: x / 1.0 is exact
                m.setattr(cft, "softmax", lambda logits: frozen_info_nce_softmax(logits, 1.0))
                want = _info_nce(za, zp, zn, tau, in_batch=in_batch)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes()


def assert_kernel_gradients_match_fd(in_batch):
    za, zp, zn = in_batch_inputs(3, 2, 4, seed=1)
    tau, h = 0.07, 1e-6

    def loss_at(*z):
        return _info_nce(*z, tau, in_batch=in_batch)[0]

    _, ga, gp, gn = _info_nce(za, zp, zn, tau, in_batch=in_batch)
    for which, grad in enumerate((ga, gp, gn)):
        fd = np.zeros_like(grad)
        for ix in np.ndindex(grad.shape):
            up = [x.copy() for x in (za, zp, zn)]
            down = [x.copy() for x in (za, zp, zn)]
            up[which][ix] += h
            down[which][ix] -= h
            fd[ix] = (loss_at(*up) - loss_at(*down)) / (2 * h)
        assert np.abs(fd - grad).max() < 1e-4 * max(1.0, np.abs(fd).max())


def test_info_nce_in_batch_gradients_match_fd():
    assert_kernel_gradients_match_fd(in_batch=True)


def test_info_nce_in_sample_gradients_match_fd():
    assert_kernel_gradients_match_fd(in_batch=False)


def test_info_nce_in_batch_zero_norm_rows():
    za, zp, zn = in_batch_inputs(4, 3, 5, seed=2)
    za[1] = 0.0
    zp[2] = 0.0
    zn[0, 1] = 0.0
    with pytest.warns(ZeroNormWarning):
        loss, ga, gp, gn = _info_nce(za, zp, zn, 0.07, in_batch=True)
    assert np.isfinite(loss)
    assert all(np.isfinite(g).all() for g in (ga, gp, gn))
    assert not ga[1].any() and not gp[2].any() and not gn[0, 1].any()
    with pytest.warns(ZeroNormWarning):
        want = per_anchor_in_batch(za, zp, zn, 0.07)
    for g, w in zip((loss, ga, gp, gn), want):
        assert_close_rel(g, w)


def tiny_setup(seed=0, n_families=3, per_family=15, d=8):
    rng = np.random.default_rng(seed)
    records = []
    for f in range(n_families):
        center = rng.standard_normal(d)
        for i in range(per_family):
            records.append(DescriptionRecord(
                f"f{f}-{i:02d}", f"f{f}", center + 0.3 * rng.standard_normal(d)
            ))
    corpus = Corpus(records, d)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=8, n_diverse=5, seed=seed,
                       negatives_hard_per_sample=3, negatives_diverse_per_sample=2)
    sets = mine_all(corpus, positives, cfg, "similarity")
    return corpus, build_all_samples(corpus, positives, sets, cfg)


def test_train_adapter_reduces_loss_and_is_deterministic():
    corpus, samples = tiny_setup()
    cfg = CftConfig(learning_rate=1e-3, epochs=3, hidden_dim=32, output_dim=8, seed=1)
    head1, trace1 = train_adapter(samples, corpus, cfg)
    head2, trace2 = train_adapter(samples, corpus, cfg)
    assert trace1 == trace2
    for l1, l2 in zip(head1.layers, head2.layers):
        np.testing.assert_array_equal(l1.weights, l2.weights)
    first = np.mean([l for _, l in trace1[:3]])
    last = np.mean([l for _, l in trace1[-3:]])
    assert last < first


def test_train_adapter_in_batch_mode_runs():
    corpus, samples = tiny_setup()
    cfg = CftConfig(learning_rate=1e-3, epochs=1, hidden_dim=16, output_dim=8,
                    denominator_mode="in_batch", batch_size=8, seed=1)
    head, trace = train_adapter(samples[:32], corpus, cfg)
    assert all(np.isfinite(l) for _, l in trace)


def reference_train_adapter(samples, corpus, cfg):
    """The adapter loop that drives `chain_forward` / `chain_backward` on the
    two layers by hand: (flat parameters, loss trace) after training."""
    rng = np.random.default_rng([cfg.seed, 0x41445031])
    layers = [init_dense(corpus.dim, cfg.hidden_dim, "relu", rng),
              init_dense(cfg.hidden_dim, cfg.output_dim, "identity", rng)]
    params = rebind_params(layers, bind_params(layers).astype(PARAM_DTYPE))
    rows = np.column_stack([samples.anchor, samples.positive, samples.negatives])
    n, k = rows.shape[0], rows.shape[1] - 2
    opt = adamw_init(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    trace = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 0xC47, epoch]).permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = rows[order[start : start + cfg.batch_size]]
            bsz = len(batch)
            flat = corpus.vectors[np.concatenate([batch[:, 0], batch[:, 1], batch[:, 2:].ravel()])]
            out, caches = chain_forward(layers, flat)
            za, zp, zn = out[:bsz], out[bsz : 2 * bsz], out[2 * bsz :].reshape(bsz, k, -1)
            loss, ga, gp, gn = _info_nce(za, zp, zn, cfg.temperature,
                                         in_batch=cfg.denominator_mode == "in_batch")
            upstream = np.concatenate([ga, gp, gn.reshape(bsz * k, -1)])
            grads, _ = chain_backward(layers, caches, upstream, out=np.empty_like(params),
                                      input_grad=False)
            adamw_step(opt, params, grads)
            trace.append((len(trace), loss))
    return params, trace


@pytest.mark.parametrize("mode", ["in_sample", "in_batch"])
def test_train_adapter_matches_the_direct_chain_loop(mode):
    corpus, samples = tiny_setup(seed=4)
    cfg = CftConfig(learning_rate=1e-3, epochs=2, batch_size=8, hidden_dim=16, output_dim=8,
                    denominator_mode=mode, seed=5)
    head, trace = train_adapter(samples, corpus, cfg)
    params, want = reference_train_adapter(samples, corpus, cfg)
    assert len(samples) % cfg.batch_size  # a short last batch is covered too
    assert head.params.tobytes() == params.tobytes()
    assert trace == want


@pytest.mark.parametrize("field, value, error", [
    ("temperature", 1e-30, "epoch 0, batch 4: non-finite loss or gradient"),
    ("learning_rate", 1e3, "epoch 2, batch 5: non-finite loss or gradient"),
], ids=["tau", "lr"])
def test_train_adapter_stops_at_the_batch_that_diverged(field, value, error):
    corpus, samples = tiny_setup()
    cfg = CftConfig(epochs=3, hidden_dim=64, output_dim=32, **{field: value})
    with pytest.raises(NonFiniteError, match=f"^{error}$"):
        train_adapter(samples, corpus, cfg)


def test_train_adapter_validation():
    corpus, samples = tiny_setup()
    with pytest.raises(ValueError):
        train_adapter([], corpus, CftConfig())
    for field, value, message in [("temperature", 0.0, "temperature must be > 0"),
                                  ("temperature", np.nan, "temperature must be > 0"),
                                  ("learning_rate", -1.0, "learning_rate must be > 0"),
                                  ("learning_rate", np.inf, "learning_rate must be > 0"),
                                  ("weight_decay", np.nan, "weight_decay must be >= 0"),
                                  ("weight_decay", -0.5, "weight_decay must be >= 0")]:
        with pytest.raises(ValueError, match=message):
            train_adapter(samples, corpus, CftConfig(**{field: value}))
    for field, row in [("anchor", -1), ("positive", len(corpus)), ("negatives", len(corpus))]:
        bad = samples[:2].copy()
        getattr(bad, field)[1] = row
        with pytest.raises(ValueError, match=rf"sample rows must lie in \[0, {len(corpus)}\)"):
            train_adapter(bad, corpus, CftConfig())


def test_refine_outputs_unit_norm():
    corpus, samples = tiny_setup()
    cfg = CftConfig(learning_rate=1e-3, epochs=1, hidden_dim=16, output_dim=4, seed=2)
    head, _ = train_adapter(samples, corpus, cfg)
    refined = refine(head, corpus)
    assert refined.dim == 4
    assert [r.id for r in refined.records] == [r.id for r in corpus.records]
    for r in refined.records:
        assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-12)


def test_refine_dim_mismatch():
    head = init_adapter(8, 16, 4, seed=0)
    corpus = Corpus([DescriptionRecord("a", "f", np.ones(5)),
                     DescriptionRecord("b", "g", np.ones(5))], 5)
    with pytest.raises(ShapeError):
        refine(head, corpus)


def test_adapter_save_load_roundtrip(tmp_path):
    head = init_adapter(8, 16, 4, seed=3)
    x = np.random.default_rng(4).standard_normal((5, 8))
    path = tmp_path / "head.adp1"
    head.save(path)
    back = AdapterHead.load(path)
    assert back.params.dtype == np.float32
    assert back.params.tobytes() == head.params.tobytes()  # float32 is stored exactly
    np.testing.assert_array_equal(back.forward(x), head.forward(x))


@pytest.mark.parametrize("n_layers", [1, 3])
def test_adapter_load_enforces_two_layers(tmp_path, n_layers):
    layers = init_adapter(8, 8, 8, seed=0).layers
    path = tmp_path / "a.adp1"
    write_layers(path, ADP1_MAGIC, (layers * 2)[:n_layers])
    with pytest.raises(FormatError) as exc:
        AdapterHead.load(path)
    assert str(exc.value) == f"{path}: expected 2 layers in a ADP1 checkpoint, got {n_layers}"


def test_adapter_load_rejects_wrong_magic(tmp_path):
    from cftmal.data import FormatError
    from cftmal.fusion import init_teacher

    teacher = init_teacher(4, 3, seed=0)
    path = tmp_path / "t.tch1"
    teacher.save(path)
    with pytest.raises(FormatError, match="magic"):
        AdapterHead.load(path)


@pytest.mark.parametrize("in_batch", [False, True])
def test_info_nce_follows_the_dtype_of_its_arrays(in_batch):
    rng = np.random.default_rng(30)
    za, zp = (rng.standard_normal((4, 6)).astype(np.float32) for _ in range(2))
    zn = rng.standard_normal((4, 3, 6)).astype(np.float32)
    loss, *grads = _info_nce(za, zp, zn, 0.07, in_batch)
    assert [g.dtype for g in grads] == [np.float32] * 3
    want_loss, *want = _info_nce(za.astype(np.float64), zp.astype(np.float64),
                                 zn.astype(np.float64), 0.07, in_batch)
    assert loss == pytest.approx(want_loss, rel=1e-5)
    for g, w in zip(grads, want):
        np.testing.assert_allclose(g, w, rtol=1e-4, atol=1e-5)
