import tracemalloc

import numpy as np
import pytest

from cftmal.cft import AdapterHead, init_adapter
from cftmal.data import Corpus, DescriptionRecord, FormatError
from cftmal.distill import logits_loss, logits_loss_jvp
from cftmal.fusion import (
    ATTR_HIDDEN,
    BRANCH_WIDTH,
    PARAM_DTYPE,
    FusionModel,
    TeacherModel,
    _concat,
    batch_arrays,
    init_fusion,
    init_teacher,
    teacher_train,
)
from cftmal.meta import build_pool
from cftmal.numeric import (
    DenseLayer,
    NonFiniteError,
    ShapeError,
    _as_matrix,
    adamw_init,
    adamw_step,
    chain_backward_jvp,
    chain_forward,
    chain_tangent,
    init_dense,
    layer_backward_jvp,
    param_views,
)


def tiny_fusion(rng):
    """Small-width model so finite differences stay cheap."""
    attr_branch = [
        DenseLayer(rng.standard_normal((4, 3)) * 0.5, rng.standard_normal(4), "relu"),
        DenseLayer(rng.standard_normal((3, 4)) * 0.5, rng.standard_normal(3), "relu"),
    ]
    emb_branch = [DenseLayer(rng.standard_normal((3, 5)) * 0.5, rng.standard_normal(3), "identity")]
    fusion = DenseLayer(rng.standard_normal((4, 6)) * 0.5, rng.standard_normal(4), "relu")
    classifier = DenseLayer(rng.standard_normal((3, 4)) * 0.5, rng.standard_normal(3), "identity")
    return FusionModel(attr_branch, emb_branch, fusion, classifier)


@pytest.mark.parametrize("bad, message", [
    (1, "layer 1 takes 5 inputs, layer 0 gives 4"),  # inside the attribute branch
    (4, "layer 4 takes 5 inputs, layer 3 gives 4"),  # inside the head
])
def test_fusion_rejects_layers_that_do_not_chain(bad, message):
    layers = tiny_fusion(np.random.default_rng(0)).layers
    layers[bad] = DenseLayer(np.zeros((layers[bad].out_dim, 5)), np.zeros(layers[bad].out_dim))
    with pytest.raises(ShapeError, match=f"^{message}$"):
        FusionModel(layers[:2], layers[2:3], *layers[3:])


def fd_param_grads(loss_fn, params, h=1e-6):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gf = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = loss_fn()
            flat[i] = old - h
            down = loss_fn()
            flat[i] = old
            gf[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def test_fusion_shapes_and_branch_check():
    rng = np.random.default_rng(0)
    model = tiny_fusion(rng)
    attrs = rng.standard_normal((7, 3))
    embs = rng.standard_normal((7, 5))
    logits = model.forward(attrs, embs)
    assert logits.shape == (7, 3)
    assert model.attr_dim == 3 and model.emb_dim == 5 and model.n_classes == 3
    with pytest.raises(ShapeError):
        FusionModel(model.attr_branch, model.emb_branch,
                    DenseLayer(np.zeros((4, 7)), np.zeros(4), "relu"),
                    model.classifier)


def test_fusion_grads_match_fd():
    rng = np.random.default_rng(1)
    model = tiny_fusion(rng)
    attrs = rng.standard_normal((6, 3))
    embs = rng.standard_normal((6, 5))
    labels = rng.integers(0, 3, 6)
    _, grads = model.loss_and_grads(attrs, embs, labels)
    fd = fd_param_grads(lambda: model.loss_and_grads(attrs, embs, labels)[0],
                        model.get_params())
    for g, f in zip(param_views(model.layers, grads), fd):
        assert np.abs(g - f).max() < 1e-5 * max(1.0, np.abs(f).max())


@pytest.mark.parametrize("kind", ["student", "teacher"])
def test_fusion_hvp_matches_fd_of_gradient(kind):
    rng = np.random.default_rng(2)
    model = tiny_fusion(rng) if kind == "student" else init_teacher(3, 3, seed=2)
    attrs = rng.standard_normal((5, 3))
    embs = rng.standard_normal((5, 5))
    labels = rng.integers(0, 3, 5)
    params = model.params.copy()
    vec = rng.standard_normal(params.size)
    hv = model.hvp(model.linearize(attrs, embs, labels), vec)
    h = 1e-6
    _, gu = model.bound_to(params + h * vec).loss_and_grads(attrs, embs, labels)
    _, gd = model.bound_to(params - h * vec).loss_and_grads(attrs, embs, labels)
    np.testing.assert_array_equal(model.params, params)
    for hvi, u, d in zip(*(param_views(model.layers, v) for v in (hv, gu, gd))):
        fd = (u - d) / (2 * h)
        assert np.abs(hvi - fd).max() < 1e-4 * max(1.0, np.abs(fd).max())


def test_fusion_clone_is_independent():
    rng = np.random.default_rng(3)
    model = tiny_fusion(rng)
    clone = model.clone()
    clone.attr_branch[0].weights[:] = 0.0
    assert np.abs(model.attr_branch[0].weights).max() > 0.0


def test_fusion_save_load(tmp_path):
    model = init_fusion(attr_dim=6, emb_dim=4, n_classes=5, seed=4)
    rng = np.random.default_rng(5)
    attrs = rng.standard_normal((3, 6))
    embs = rng.standard_normal((3, 4))
    path = tmp_path / "m.fus1"
    model.save(path)
    back = FusionModel.load(path)
    assert back.params.dtype == np.float32
    assert back.params.tobytes() == model.params.tobytes()  # float32 is stored exactly
    np.testing.assert_array_equal(back.forward(attrs, embs), model.forward(attrs, embs))


def test_teacher_ignores_embeddings():
    teacher = init_teacher(attr_dim=4, n_classes=3, seed=6)
    rng = np.random.default_rng(7)
    attrs = rng.standard_normal((5, 4))
    a = teacher.forward(attrs, rng.standard_normal((5, 9)))
    b = teacher.forward(attrs, None)
    np.testing.assert_array_equal(a, b)


def test_teacher_grads_match_fd():
    teacher = init_teacher(attr_dim=3, n_classes=3, seed=8)
    teacher = teacher.bound_to(teacher.params.astype(np.float64))  # FD needs float64
    rng = np.random.default_rng(9)
    attrs = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, 6)
    _, grads = teacher.loss_and_grads(attrs, None, labels)
    fd = fd_param_grads(lambda: teacher.loss_and_grads(attrs, None, labels)[0],
                        teacher.get_params())
    for g, f in zip(param_views(teacher.layers, grads), fd):
        assert np.abs(g - f).max() < 1e-5 * max(1.0, np.abs(f).max())


def test_teacher_train_learns_separable_data():
    rng = np.random.default_rng(10)
    rows = []
    for c in range(3):
        center = np.zeros(6)
        center[c * 2] = 3.0
        for i in range(30):
            rows.append(DescriptionRecord(
                f"c{c}-{i}", f"c{c}", center + 0.3 * rng.standard_normal(6)
            ))
    teacher, trace = teacher_train(Corpus(rows, 6, families=["c0", "c1", "c2"]), lr=1e-2,
                                   epochs=15, seed=11)
    assert trace[-1] > 0.95
    assert trace[-1] >= trace[0]


def test_teacher_train_stops_at_the_batch_that_diverged():
    rows = [DescriptionRecord(f"r{i}", f"c{i % 3}", np.full(6, i % 3 + 1.0)) for i in range(150)]
    with pytest.raises(NonFiniteError, match="^epoch 0, batch 2: non-finite logits on the "
                                             "training rows after the update$"):
        teacher_train(Corpus(rows, 6, families=["c0", "c1", "c2"]), lr=1e6, epochs=3)


def test_teacher_train_rejects_row_outside_families():
    rows = [DescriptionRecord("a", "c0", np.ones(4)), DescriptionRecord("b", "c7", np.ones(4))]
    with pytest.raises(FormatError, match="'b'.*'c7'"):
        teacher_train(Corpus(rows, 4, families=["c0", "c1"]), epochs=1)


@pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
def test_teacher_train_rejects_a_rate_that_is_not_finite_and_positive(lr):
    rows = [DescriptionRecord("a", "c0", np.ones(4)), DescriptionRecord("b", "c1", np.ones(4))]
    with pytest.raises(ValueError, match="teacher_lr must be > 0"):
        teacher_train(Corpus(rows, 4), lr=lr, epochs=1)


def test_teacher_save_load(tmp_path):
    teacher = init_teacher(attr_dim=5, n_classes=4, seed=12)
    path = tmp_path / "t.tch1"
    teacher.save(path)
    back = TeacherModel.load(path)
    rng = np.random.default_rng(13)
    attrs = rng.standard_normal((4, 5))
    assert back.params.dtype == np.float32
    assert back.params.tobytes() == teacher.params.tobytes()
    np.testing.assert_array_equal(back.forward(attrs), teacher.forward(attrs))


def test_batch_arrays():
    corpus = Corpus([DescriptionRecord("a", "f1", np.zeros(3)),
                     DescriptionRecord("b", "f0", np.ones(3))], 3)
    rows = [DescriptionRecord("b", "f0", np.ones(2) * 2), DescriptionRecord("a", "f1", np.ones(2))]
    attrs, embs, labels = batch_arrays(build_pool(corpus, Corpus(rows, 2)))
    assert attrs.shape == (2, 2) and embs.shape == (2, 3)
    np.testing.assert_array_equal(attrs, [[1.0, 1.0], [2.0, 2.0]])
    np.testing.assert_array_equal(embs, [np.zeros(3), np.ones(3)])
    assert labels.tolist() == [1, 0] and labels.dtype == np.int64


def test_fusion_bound_to_views_the_vector_without_copying():
    rng = np.random.default_rng(6)
    model = tiny_fusion(rng)
    attrs = rng.standard_normal((4, 3))
    embs = rng.standard_normal((4, 5))
    flat = model.params + rng.standard_normal(model.params.size)
    bound = model.bound_to(flat)
    assert bound.params is flat
    assert np.shares_memory(bound.attr_branch[0].weights, flat)
    flat *= 0.5
    expected = model.clone()
    expected.params[...] = flat
    np.testing.assert_array_equal(bound.forward(attrs, embs), expected.forward(attrs, embs))
    assert not np.shares_memory(model.params, flat)


def pipeline_model(kind):
    """A model as the pipeline builds it, with a batch of inputs and labels for it."""
    rng = np.random.default_rng(20)
    model, width, embs = {
        "student": (init_fusion(6, 4, 3, seed=0), 6, rng.standard_normal((5, 4))),
        "teacher": (init_teacher(6, 3, seed=0), 6, None),
        "adapter": (init_adapter(4, 8, 3, seed=0), 4, None),
    }[kind]
    return model, (rng.standard_normal((5, width)), embs), rng.integers(0, 3, 5)


# The three initialisers as they stood when each seeded its own rng with a
# hex salt and drew its layers by hand, kept line for line: `FusionModel.init`
# must draw the same parameters bit for bit.


def frozen_init_fusion(attr_dim, emb_dim, n_classes, seed):
    rng = np.random.default_rng([seed, 0x46555331])
    attr_branch = [
        init_dense(attr_dim, ATTR_HIDDEN, "relu", rng),
        init_dense(ATTR_HIDDEN, BRANCH_WIDTH, "relu", rng),
    ]
    emb_branch = [init_dense(emb_dim, BRANCH_WIDTH, "identity", rng)]
    fusion = init_dense(2 * BRANCH_WIDTH, 2 * BRANCH_WIDTH, "relu", rng)
    classifier = init_dense(2 * BRANCH_WIDTH, n_classes, "identity", rng)
    return FusionModel(attr_branch, emb_branch, fusion, classifier).in_param_dtype()


def frozen_init_teacher(attr_dim, n_classes, seed):
    rng = np.random.default_rng([seed, 0x54434831])
    attr_branch = [
        init_dense(attr_dim, ATTR_HIDDEN, "relu", rng),
        init_dense(ATTR_HIDDEN, BRANCH_WIDTH, "relu", rng),
    ]
    classifier = init_dense(BRANCH_WIDTH, n_classes, "identity", rng)
    return TeacherModel(attr_branch, [], classifier).in_param_dtype()


def frozen_init_adapter(in_dim, hidden_dim, out_dim, seed):
    rng = np.random.default_rng([seed, 0x41445031])
    hidden = init_dense(in_dim, hidden_dim, "relu", rng)
    out = init_dense(hidden_dim, out_dim, "identity", rng)
    return AdapterHead([hidden], [], out).in_param_dtype()


@pytest.mark.parametrize("widths", [(1, 1, 2), (6, 4, 3), (32, 64, 10), (64, 512, 64)])
@pytest.mark.parametrize("seed", [0, 1, 5, 2**40 + 3])
def test_init_draws_the_frozen_initialisers_bytes(seed, widths):
    a, b, c = widths
    for got, want in [(init_fusion(a, b, c, seed), frozen_init_fusion(a, b, c, seed)),
                      (init_teacher(a, c, seed), frozen_init_teacher(a, c, seed)),
                      (init_adapter(a, b, c, seed), frozen_init_adapter(a, b, c, seed))]:
        assert type(got) is type(want)
        assert ([(l.weights.shape, l.activation) for l in got.layers]
                == [(l.weights.shape, l.activation) for l in want.layers])
        assert got.params.dtype == want.params.dtype == PARAM_DTYPE
        assert got.params.tobytes() == want.params.tobytes()


def pass_dtypes(model, inputs, labels):
    """The dtypes of a model's logits, CE+KD gradients, HVP and AdamW state."""
    logits = model.forward(*inputs)
    kd = (0.5 * logits, 0.5, 2.0)
    _, grads = model.loss_and_grads(*inputs, labels, kd=kd)
    hv = model.hvp(model.linearize(*inputs, labels, kd=kd), np.ones_like(model.params))
    opt = adamw_init(model.params)
    adamw_step(opt, model.params, grads)
    return {a.dtype for a in (logits, grads, hv, opt.m, opt.v, model.params)}


@pytest.mark.parametrize("kind", ["student", "teacher", "adapter"])
def test_pipeline_models_compute_in_float32(kind):
    model, inputs, labels = pipeline_model(kind)
    assert PARAM_DTYPE == np.float32
    assert {a.dtype for a in [model.params, *model.get_params()]} == {np.dtype(np.float32)}
    assert pass_dtypes(model, inputs, labels) == {np.dtype(np.float32)}  # inputs are float64


@pytest.mark.parametrize("kind", ["student", "teacher", "adapter"])
def test_float64_twin_computes_in_float64(kind):
    model, inputs, labels = pipeline_model(kind)
    twin = model.bound_to(model.params.astype(np.float64))
    assert {a.dtype for a in twin.get_params()} == {np.dtype(np.float64)}
    np.testing.assert_allclose(model.forward(*inputs), twin.forward(*inputs),
                               rtol=1e-5, atol=1e-5)
    assert pass_dtypes(twin, inputs, labels) == {np.dtype(np.float64)}
    assert tiny_fusion(np.random.default_rng(0)).params.dtype == np.float64  # hand-built


@pytest.mark.parametrize("kind", ["student", "teacher", "adapter"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_is_forward_cache_logits_bit_for_bit(kind, dtype):
    """The FUS1, TCH1 and ADP1 layouts and their float64 twins."""
    model, inputs, _ = pipeline_model(kind)
    model = model.bound_to(model.params.astype(dtype))
    want, _ = model.forward_cache(*inputs)
    got = model.forward(*inputs)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    # a relu whose pre-activation is NaN or -0.0 masks the same way
    x = inputs[0].copy()
    x[0, 0], x[1] = np.nan, -0.0
    assert model.forward(x, inputs[1]).tobytes() == model.forward_cache(x, inputs[1])[0].tobytes()


# The layer step of the backward's tangent as it stood when it repeated
# `layer_backward`'s arithmetic on the tangent upstream, kept op for op:
# `layer_backward_jvp`, `chain_backward_jvp` and `FusionModel.hvp` must
# match it bit for bit.


def frozen_layer_backward_jvp(layer, dW, x, dx, upstream, dupstream, z, input_grad=True,
                              out=(None, None)):
    if layer.activation == "relu":
        mask = z > 0.0
        dz = upstream * mask
        ddz = dupstream * mask
    else:
        dz = upstream
        ddz = dupstream
    dgW = np.matmul(ddz.T, x, out=out[0])
    if dx is not None:
        dgW += dz.T @ dx
    dgb = np.sum(ddz, axis=0, out=out[1])
    if not input_grad:
        return (dgW, dgb), None, None
    return (dgW, dgb), dz @ layer.weights, ddz @ layer.weights + dz @ dW


def _same_bytes(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        elif isinstance(w, tuple):
            _same_bytes(g, w)
        else:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
@pytest.mark.parametrize("input_grad", [True, False], ids=["gx", "no-gx"])
@pytest.mark.parametrize("with_dx", [False, True], ids=["dx-none", "dx"])
@pytest.mark.parametrize("activation", ["relu", "identity"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_backward_jvp_is_bit_identical_to_the_frozen_step(dtype, activation, with_dx,
                                                                input_grad, given_out):
    rng = np.random.default_rng(31)
    layer = DenseLayer(rng.standard_normal((6, 5)).astype(dtype),
                       rng.standard_normal(6).astype(dtype), activation)
    x, dx = (rng.standard_normal((7, 5)).astype(dtype) for _ in range(2))
    x[0, :] = np.nan  # a NaN and a -0.0 pre-activation reach the relu mask
    x[1, :] = -0.0
    dW = rng.standard_normal(layer.weights.shape).astype(dtype)
    upstream, dupstream = (rng.standard_normal((7, 6)).astype(dtype) for _ in range(2))
    _, [(_, z)] = chain_forward([layer], x)
    args = (layer, dW, x, dx if with_dx else None, upstream, dupstream, z, input_grad)

    def out():
        return ((np.empty_like(layer.weights), np.empty_like(layer.bias)) if given_out
                else (None, None))

    with np.errstate(invalid="ignore"):
        _same_bytes(layer_backward_jvp(*args, out=out()),
                    frozen_layer_backward_jvp(*args, out=out()))


@pytest.mark.parametrize("input_grad", [True, False], ids=["gx", "no-gx"])
@pytest.mark.parametrize("with_dx", [False, True], ids=["dx-none", "dx"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chain_backward_jvp_is_bit_identical_to_the_frozen_step(dtype, with_dx, input_grad):
    """A relu layer over an identity one, then the reverse."""
    rng = np.random.default_rng(32)
    layers = [DenseLayer(rng.standard_normal((o, i)).astype(dtype),
                         rng.standard_normal(o).astype(dtype), act)
              for (o, i), act in zip([(6, 5), (4, 6), (3, 4)], ["relu", "identity", "relu"])]
    x = rng.standard_normal((7, 5)).astype(dtype)
    dx = rng.standard_normal((7, 5)).astype(dtype) if with_dx else None
    dparams = rng.standard_normal(sum(l.weights.size + l.bias.size for l in layers)).astype(dtype)
    upstream, dupstream = (rng.standard_normal((7, 3)).astype(dtype) for _ in range(2))
    _, caches = chain_forward(layers, x)
    _, dxs = chain_tangent(layers, caches, dparams, dx)
    got = chain_backward_jvp(layers, dparams, caches, dxs, upstream, dupstream,
                             input_grad=input_grad, out=np.empty_like(dparams))
    frozen_caches = [(x_in, dx_in, z) for (x_in, z), dx_in in zip(caches, dxs)]
    want = frozen_chain_backward_jvp(layers, dparams, frozen_caches, upstream, dupstream,
                                     input_grad=input_grad, out=np.empty_like(dparams))
    _same_bytes(got, want)


# The Hessian-vector product as it stood when it ran its own tangent-carrying
# forward, kept op for op: `FusionModel.hvp` must match it bit for bit.


def frozen_layer_forward_jvp(layer, dW, db, x, dx):
    x = _as_matrix(x, "x", layer.weights.dtype)
    z = x @ layer.weights.T
    z += layer.bias
    dz = x @ dW.T + db if dx is None else dx @ layer.weights.T + x @ dW.T + db
    if layer.activation == "relu":
        mask = z > 0.0
        return np.maximum(z, 0.0), dz * mask, z
    return z, dz, z


def frozen_chain_forward_jvp(layers, dparams, x, dx=None):
    views = param_views(layers, dparams)
    caches = []
    a, da = x, dx
    for layer, dW, db in zip(layers, views[::2], views[1::2]):
        a = _as_matrix(a, "x", layer.weights.dtype)
        a_next, da_next, z = frozen_layer_forward_jvp(layer, dW, db, a, da)
        caches.append((a, da, z))
        a, da = a_next, da_next
    return a, da, caches


def frozen_chain_backward_jvp(layers, dparams, caches, upstream, dupstream, input_grad=True,
                              out=None):
    dviews = param_views(layers, dparams)
    views = param_views(layers, out)
    g, dg = upstream, dupstream
    for i in range(len(layers) - 1, -1, -1):
        x, dx, z = caches[i]
        _, g, dg = frozen_layer_backward_jvp(layers[i], dviews[2 * i], x, dx, g, dg, z,
                                             input_grad=input_grad or i > 0,
                                             out=views[2 * i : 2 * i + 2])
    return out, g, dg


def frozen_hvp(model, attrs, embs, labels, vec, kd=None):
    *branch_vecs, head_vec = model._cuts(vec)
    outs, touts, caches = [], [], []
    for branch, x, dp in zip(model.branches, (attrs, embs), branch_vecs):
        a, da, c = frozen_chain_forward_jvp(branch, dp, x)
        outs.append(a)
        touts.append(da)
        caches.append(c)
    logits, dlogits, ch = frozen_chain_forward_jvp(model.head, head_vec, _concat(outs), _concat(touts))
    _, gl = logits_loss(logits, labels, kd)
    dgl = logits_loss_jvp(logits, dlogits, kd)
    dgrads = np.empty_like(model.params)
    *branch_out, head_out = model._cuts(dgrads)
    _, gh, dgh = frozen_chain_backward_jvp(model.head, head_vec, ch, gl, dgl, out=head_out)
    cols = zip(model._branch_columns(gh), model._branch_columns(dgh))
    for branch, dp, c, (g, dg), out in zip(model.branches, branch_vecs, caches, cols, branch_out):
        frozen_chain_backward_jvp(branch, dp, c, g, dg, input_grad=False, out=out)
    return dgrads


@pytest.mark.parametrize("rows", ["dense", "nan-row", "negative-zero-row"])
@pytest.mark.parametrize("kd", [False, True], ids=["ce", "kd"])
@pytest.mark.parametrize("kind", ["student", "teacher", "adapter"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hvp_is_bit_identical_to_the_frozen_twin_forward(kind, dtype, kd, rows):
    """The FUS1, TCH1 and ADP1 layouts and their float64 twins, with and
    without KD; a NaN row and a -0.0 row reach every relu mask."""
    model, (attrs, embs), labels = pipeline_model(kind)
    model = model.bound_to(model.params.astype(dtype))
    attrs = attrs.copy()
    if rows == "nan-row":
        attrs[2] = np.nan
    elif rows == "negative-zero-row":
        attrs[2] = -0.0
    vec = np.random.default_rng(21).standard_normal(model.params.size).astype(dtype)
    teacher = (0.5 * model.forward(attrs, embs), 0.3, 2.0) if kd else None
    with np.errstate(invalid="ignore"):
        got = model.hvp(model.linearize(attrs, embs, labels, kd=teacher), vec)
        want = frozen_hvp(model, attrs, embs, labels, vec, kd=teacher)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_forward_shape_checks_stay():
    model, (attrs, embs), _ = pipeline_model("student")
    with pytest.raises(ShapeError, match="x must be 2-D"):
        model.forward(attrs[0], embs)
    with pytest.raises(ShapeError, match="input dim 3 != layer in dim 4"):
        model.forward(attrs, embs[:, :3])


def test_student_forward_keeps_no_caches():
    """A 2,000-row inference pass of the bundled student (32 attributes,
    64-wide embeddings, 10 classes) holds one activation per branch at a
    time: 6.2 MB traced, where keeping every layer's caches took 14.3 MB.
    The bound, 8 MB, leaves 1.8 MB of margin above the measured peak."""
    rng = np.random.default_rng(43)
    model = init_fusion(32, 64, 10, seed=0)
    attrs, embs = rng.standard_normal((2000, 32)), rng.standard_normal((2000, 64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.forward(attrs, embs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8e6
