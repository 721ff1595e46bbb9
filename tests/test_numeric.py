import tracemalloc

import numpy as np
import pytest

from cftmal.numeric import (
    BETA1,
    BETA2,
    EPS,
    AdamWState,
    DenseLayer,
    NonFiniteError,
    ShapeError,
    adamw_init,
    adamw_step,
    chain_backward,
    chain_backward_jvp,
    chain_forward,
    chain_params,
    chain_tangent,
    checked_adamw_step,
    init_dense,
    layer_backward,
    layer_forward,
    n_params,
    param_views,
    softmax,
    softmax_cross_entropy,
)

H = 1e-5


def fd_grad(f, x, h=H):
    """Central finite differences of a scalar function over an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = f()
        flat[i] = old - h
        down = f()
        flat[i] = old
        gf[i] = (up - down) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def test_dense_layer_validation():
    with pytest.raises(ShapeError):
        DenseLayer(np.ones((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        DenseLayer(np.ones((3, 2)), np.zeros(3), "tanh")


def test_init_dense_glorot_bounds():
    rng = np.random.default_rng(0)
    layer = init_dense(40, 60, "relu", rng)
    limit = np.sqrt(6.0 / 100)
    assert np.all(np.abs(layer.weights) <= limit)
    assert np.all(layer.bias == 0.0)
    assert layer.in_dim == 40 and layer.out_dim == 60


@pytest.mark.parametrize("activation", ["identity", "relu"])
def test_layer_backward_matches_fd(activation):
    rng = np.random.default_rng(7)
    for _ in range(10):
        layer = DenseLayer(rng.standard_normal((4, 5)), rng.standard_normal(4), activation)
        x = rng.standard_normal((3, 5))
        upstream = rng.standard_normal((3, 4))

        def loss():
            return float((layer_forward(layer, x) * upstream).sum())

        gw, gb, gx = layer_backward(layer, x, upstream)
        assert rel_err(gw, fd_grad(loss, layer.weights)) < 1e-6
        assert rel_err(gb, fd_grad(loss, layer.bias)) < 1e-6
        assert rel_err(gx, fd_grad(loss, x)) < 1e-6


def test_layer_backward_uses_cached_preactivation():
    rng = np.random.default_rng(1)
    layer = DenseLayer(rng.standard_normal((3, 3)), rng.standard_normal(3), "relu")
    x = rng.standard_normal((2, 3))
    upstream = rng.standard_normal((2, 3))
    z = x @ layer.weights.T + layer.bias
    without = layer_backward(layer, x, upstream)
    with_cache = layer_backward(layer, x, upstream, z=z)
    for a, b in zip(without, with_cache):
        np.testing.assert_array_equal(a, b)


def test_softmax_rows_sum_to_one_and_is_shift_invariant():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 7)) * 50
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(softmax(z + 1000.0), p, atol=1e-12)


def test_softmax_cross_entropy_matches_fd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        loss, grad = softmax_cross_entropy(logits, labels)

        def f():
            return softmax_cross_entropy(logits, labels)[0]

        assert rel_err(grad, fd_grad(f, logits)) < 1e-6
        assert loss > 0.0


def frozen_softmax_cross_entropy(logits, labels):
    """The loss as it stood when its gradient took a second exponential
    through `softmax`, kept op for op."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logsumexp - shifted[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_cross_entropy_is_bit_identical_to_the_two_exponential_form(dtype):
    rng = np.random.default_rng(8)
    for case in range(500):
        n, c = rng.integers(1, 12, size=2) + [0, 1]
        logits = (rng.standard_normal((n, c)) * 10.0 ** rng.uniform(-2, 2)).astype(dtype)
        labels = rng.integers(0, c, n)
        loss, grad = softmax_cross_entropy(logits, labels)
        want_loss, want_grad = frozen_softmax_cross_entropy(logits, labels)
        assert loss == want_loss, case
        assert grad.dtype == want_grad.dtype == dtype
        assert grad.tobytes() == want_grad.tobytes(), case


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_adamw_decoupled_decay():
    # with zero gradients, AdamW must still shrink weights by lr * wd
    p = np.full(4, 10.0)
    state = adamw_init(p, lr=0.1, weight_decay=0.5)
    adamw_step(state, p, np.zeros(4))
    np.testing.assert_allclose(p, 10.0 * (1 - 0.1 * 0.5))


def test_adamw_first_step_magnitude():
    # on step 1 the bias-corrected update is lr * g / (|g| + eps)
    p = np.array([0.0])
    g = np.array([3.0])
    state = adamw_init(p, lr=0.01, weight_decay=0.0)
    adamw_step(state, p, g)
    np.testing.assert_allclose(p, -0.01, atol=1e-8)
    assert state.step == 1


@pytest.mark.parametrize("loss, bad", [(np.inf, None), (np.nan, None), (1.0, np.inf),
                                       (1.0, np.nan)])
def test_checked_adamw_step_refuses_a_non_finite_loss_or_gradient_before_the_update(loss, bad):
    params = np.ones(3, dtype=np.float32)
    grads = np.full(3, 0.5, dtype=np.float32)
    if bad is not None:
        grads[1] = bad
    state = adamw_init(params, lr=0.1)
    with pytest.raises(NonFiniteError, match="^epoch 2, batch 5: non-finite loss or gradient$"):
        checked_adamw_step(state, params, loss, grads, "epoch 2, batch 5")
    assert state.step == 0 and not state.m.any() and not state.v.any()
    assert (params == 1.0).all()


def test_checked_adamw_step_refuses_an_update_past_float32():
    params = np.full(2, -3e38, dtype=np.float32)
    state = adamw_init(params, lr=1e38, weight_decay=0.0)
    with pytest.raises(NonFiniteError, match="^batch 0: non-finite parameters after the update$"):
        checked_adamw_step(state, params, 1.0, np.ones(2, dtype=np.float32), "batch 0")


def textbook_adamw(m, v, params, grads, step, lr, weight_decay):
    """The reference AdamW step, one new array per operation."""
    m = BETA1 * m + (1.0 - BETA1) * grads
    v = BETA2 * v + (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1**step)
    v_hat = v / (1.0 - BETA2**step)
    params = params * (1.0 - lr * weight_decay)
    params = params - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return m, v, params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_matches_the_textbook_sequence_bit_for_bit(dtype):
    rng = np.random.default_rng(41)
    params = rng.standard_normal(257).astype(dtype)
    state = adamw_init(params.copy(), lr=3e-3, weight_decay=0.01)
    live = params.copy()
    m, v = np.zeros_like(params), np.zeros_like(params)
    for step in range(1, 6):
        grads = (rng.standard_normal(257) * 10.0 ** rng.integers(-6, 3, 257)).astype(dtype)
        adamw_step(state, live, grads)
        m, v, params = textbook_adamw(m, v, params, grads, step, 3e-3, 0.01)
        assert live.dtype == dtype
        assert (live.tobytes(), state.m.tobytes(), state.v.tobytes()) == (
            params.tobytes(), m.tobytes(), v.tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_step_allocates_two_parameter_vectors(dtype):
    """One scratch vector and m_hat; a new array per operation took 4-5x."""
    rng = np.random.default_rng(42)
    params = rng.standard_normal(100_000).astype(dtype)
    grads = rng.standard_normal(100_000).astype(dtype)
    state = adamw_init(params, lr=1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adamw_step(state, params, grads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * params.nbytes + 4096  # slack for array headers


def test_adamw_shape_mismatch():
    p = np.zeros(2)
    state = adamw_init(p, lr=0.1)
    with pytest.raises(ShapeError):
        adamw_step(state, p, np.zeros(3))
    with pytest.raises(ShapeError):
        adamw_step(state, np.zeros(4), np.zeros(4))


def test_chain_roundtrip_and_backward():
    rng = np.random.default_rng(4)
    layers = [
        DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), "relu"),
        DenseLayer(rng.standard_normal((2, 4)), rng.standard_normal(2), "identity"),
    ]
    x = rng.standard_normal((5, 3))
    upstream = rng.standard_normal((5, 2))
    out, caches = chain_forward(layers, x)
    assert out.shape == (5, 2)

    def loss():
        return float((chain_forward(layers, x)[0] * upstream).sum())

    grads, gx = chain_backward(layers, caches, upstream, out=np.empty(n_params(layers)))
    params = chain_params(layers)
    for g, p in zip(param_views(layers, grads), params):
        assert rel_err(g, fd_grad(loss, p)) < 1e-6
    assert rel_err(gx, fd_grad(loss, x)) < 1e-6


def test_chain_backward_can_skip_input_grad():
    rng = np.random.default_rng(6)
    layers = [
        DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), "relu"),
        DenseLayer(rng.standard_normal((2, 4)), rng.standard_normal(2), "identity"),
    ]
    _, caches = chain_forward(layers, rng.standard_normal((5, 3)))
    upstream = rng.standard_normal((5, 2))
    grads, _ = chain_backward(layers, caches, upstream, out=np.empty(n_params(layers)))
    skipped, gx = chain_backward(layers, caches, upstream, out=np.empty(n_params(layers)),
                                 input_grad=False)
    assert gx is None
    for a, b in zip(grads, skipped):
        np.testing.assert_array_equal(a, b)


def test_chain_backward_jvp_matches_fd_of_chain_backward():
    rng = np.random.default_rng(7)
    layers = [
        DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), "relu"),
        DenseLayer(rng.standard_normal((2, 4)), rng.standard_normal(2), "identity"),
    ]
    x = rng.standard_normal((5, 3))
    upstream = rng.standard_normal((5, 2))
    params = chain_params(layers)
    dparams = rng.standard_normal(sum(p.size for p in params))
    dx = rng.standard_normal(x.shape)
    _, caches = chain_forward(layers, x)
    _, dxs = chain_tangent(layers, caches, dparams, dx)
    dgrads, gx, dgx = chain_backward_jvp(layers, dparams, caches, dxs, upstream,
                                         np.zeros_like(upstream), out=np.empty_like(dparams))

    dviews = param_views(layers, dparams)

    def grads_at(step):
        moved = [DenseLayer(w + step * dw, b + step * db, l.activation)
                 for l, w, b, dw, db in zip(layers, params[::2], params[1::2],
                                            dviews[::2], dviews[1::2])]
        _, c = chain_forward(moved, x + step * dx)
        return chain_backward(moved, c, upstream, out=np.empty_like(dparams))

    (up, gx_up), (down, gx_down) = grads_at(H), grads_at(-H)
    for d, u, w in zip(*(param_views(layers, v) for v in (dgrads, up, down))):
        assert rel_err(d, (u - w) / (2 * H)) < 1e-6
    np.testing.assert_array_equal(
        gx, chain_backward(layers, caches, upstream, out=np.empty_like(dparams))[1])
    assert rel_err(dgx, (gx_up - gx_down) / (2 * H)) < 1e-6
    skipped, none_gx, none_dgx = chain_backward_jvp(
        layers, dparams, caches, dxs, upstream, np.zeros_like(upstream), out=np.empty_like(dparams),
        input_grad=False)
    assert none_gx is None and none_dgx is None
    for a, b in zip(dgrads, skipped):
        np.testing.assert_array_equal(a, b)


def test_param_views_validates():
    rng = np.random.default_rng(5)
    layers = [DenseLayer(rng.standard_normal((2, 2)), np.zeros(2))]
    with pytest.raises(ShapeError):
        param_views(layers, np.zeros(4))
    with pytest.raises(ShapeError):
        param_views(layers, np.zeros(8))
