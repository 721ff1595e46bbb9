"""Minimal dense numerical substrate: layers, losses, AdamW.

Everything operates on plain numpy arrays of float32 or float64. Each
layer computes in its own weights' dtype: its input is cast to it, and the
gradient buffers of a layer stack are allocated in it. The losses and AdamW
follow the dtype of the arrays they are given. `DenseLayer` keeps float32 or
float64 weights as given (any other dtype becomes float64), and `init_dense`
draws float64, so a hand-built stack computes in float64. Gradients are
written out explicitly per operation so each one can be checked against
central finite differences in isolation. A model keeps its parameters in one
flat vector laid out [W0, b0, W1, b1, ...], a layout only `param_views` knows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "relu")


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent."""


class NonFiniteError(ValueError):
    """Raised when training or adaptation reaches values that are not
    finite: no parameters or accuracy can be read off them."""


def _as_float(a) -> np.ndarray:
    """`a` as an array of float32 or float64, kept as given; any other dtype as float64."""
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


def _as_matrix(x, name: str, dtype=None) -> np.ndarray:
    """x as a 2-D array of `dtype`, or of its own float dtype (`_as_float`) if None."""
    x = _as_float(x) if dtype is None else np.asarray(x, dtype=dtype)
    if x.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {x.shape}")
    return x


@dataclass
class DenseLayer:
    """Fully connected layer: activation(x @ W.T + b)."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = _as_float(self.weights)
        self.bias = np.asarray(self.bias, dtype=self.weights.dtype)
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out dim "
                f"{self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def init_dense(in_dim: int, out_dim: int, activation: str, rng: np.random.Generator) -> DenseLayer:
    """Glorot-uniform weights, zero bias."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(w, np.zeros(out_dim), activation)


def _layer_step(layer: DenseLayer, x):
    """(x as the layer reads it, the layer's output). Relu runs in place on
    the pre-activation, so its output is also its backward mask source:
    relu(z) > 0 holds exactly where z > 0, NaN and -0.0 included."""
    x = _as_matrix(x, "x", layer.weights.dtype)
    if x.shape[1] != layer.in_dim:
        raise ShapeError(f"input dim {x.shape[1]} != layer in dim {layer.in_dim}")
    out = x @ layer.weights.T
    out += layer.bias
    if layer.activation == "relu":
        np.maximum(out, 0.0, out=out)
    return x, out


def layer_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    return _layer_step(layer, x)[1]


def layer_backward(layer: DenseLayer, x: np.ndarray, upstream: np.ndarray, z: np.ndarray | None = None,
                   input_grad: bool = True, out=(None, None)):
    """Gradients of layer_forward.

    Returns (grad_weights, grad_bias, grad_input), the first two written
    into `out`'s arrays if given. `z` may carry the cached pre-activation or
    the layer's output, whose positive entries are the same; with input_grad
    False the input gradient is None.
    """
    x = _as_matrix(x, "x", layer.weights.dtype)
    upstream = _as_matrix(upstream, "upstream", layer.weights.dtype)
    if upstream.shape != (x.shape[0], layer.out_dim):
        raise ShapeError(
            f"upstream shape {upstream.shape} != ({x.shape[0]}, {layer.out_dim})"
        )
    if layer.activation == "relu":
        if z is None:
            z = _layer_step(layer, x)[1]
        dz = upstream * (z > 0.0)
    else:
        dz = upstream
    gw, gb = out
    return (np.matmul(dz.T, x, out=gw), np.sum(dz, axis=0, out=gb),
            dz @ layer.weights if input_grad else None)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean NLL over rows and its gradient w.r.t. the logits."""
    logits = _as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(n), labels]))
    grad = np.divide(e, total, out=e)  # softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW moment decays and denominator floor


@dataclass
class AdamWState:
    """Decoupled-weight-decay Adam over one flat parameter vector."""

    lr: float
    weight_decay: float
    m: np.ndarray  # first and second moment estimates, shaped like the parameters
    v: np.ndarray
    step: int = 0


def adamw_init(params, lr=1e-3, weight_decay=0.01) -> AdamWState:
    return AdamWState(lr, weight_decay, np.zeros_like(params), np.zeros_like(params))


def adamw_step(state: AdamWState, params: np.ndarray, grads: np.ndarray) -> None:
    """One AdamW update of a flat parameter vector, in place. Mutates `state`.

    The textbook sequence, operation for operation, through one scratch
    vector and m_hat: two parameter-sized temporaries per step.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(f"shapes differ: {params.shape}, {grads.shape}, state {state.m.shape}")
    state.step += 1
    scratch = np.multiply(1.0 - BETA1, grads)
    state.m *= BETA1
    state.m += scratch
    np.multiply(1.0 - BETA2, grads, out=scratch)
    scratch *= grads
    state.v *= BETA2
    state.v += scratch
    m_hat = state.m / (1.0 - BETA1**state.step)
    v_hat = np.divide(state.v, 1.0 - BETA2**state.step, out=scratch)
    np.sqrt(v_hat, out=v_hat)
    v_hat += EPS
    m_hat *= state.lr
    m_hat /= v_hat
    params *= 1.0 - state.lr * state.weight_decay
    params -= m_hat


def chain_forward(layers, x):
    """Run a layer stack, returning (output, caches) for chain_backward:
    per layer its input as it read it and its output, the mask source of
    relu. A relu layer's output is also the next layer's input, one array."""
    caches = []
    a = x
    for layer in layers:
        x_in, a = _layer_step(layer, a)
        caches.append((x_in, a))
    return a, caches


def chain_output(layers, x):
    """chain_forward's output alone, from the same per-layer step: nothing
    is kept, so each activation is freed once the next layer has read it."""
    for layer in layers:
        x = _layer_step(layer, x)[1]
    return x


def chain_params(layers):
    """The live [W0, b0, W1, b1, ...] arrays of a layer stack."""
    return [a for layer in layers for a in (layer.weights, layer.bias)]


def n_params(layers) -> int:
    return sum(a.size for a in chain_params(layers))


def _grad_buffer(layers) -> np.ndarray:
    """An uninitialised flat vector for a layer stack's gradients, in its parameters' dtype."""
    return np.empty(n_params(layers), dtype=np.result_type(*chain_params(layers)))


def param_views(layers, flat):
    """[W0, b0, W1, b1, ...] as views of one flat vector laid out in that
    order: the one place that knows a model's parameter layout."""
    if flat.shape != (n_params(layers),):
        raise ShapeError(f"flat vector shape {flat.shape} != ({n_params(layers)},)")
    views, off = [], 0
    for a in chain_params(layers):
        views.append(flat[off : off + a.size].reshape(a.shape))
        off += a.size
    return views


def bind_params(layers) -> np.ndarray:
    """A new flat vector holding the layers' parameters, which become views into it."""
    return rebind_params(layers, np.concatenate([a.ravel() for a in chain_params(layers)]))


def rebind_params(layers, flat) -> np.ndarray:
    """Make the layers' weights and biases views into `flat`, uncopied; returns `flat`."""
    views = param_views(layers, flat)
    for layer, w, b in zip(layers, views[::2], views[1::2]):
        layer.weights, layer.bias = w, b
    return flat


def chain_backward(layers, caches, upstream, input_grad: bool = True, out=None):
    """Gradients of a layer stack: (flat [gW0, gb0, gW1, gb1, ...] vector,
    written into `out` if given, grad_input). With input_grad False the
    first layer's input gradient is skipped and grad_input is None."""
    grads = _grad_buffer(layers) if out is None else out
    views = param_views(layers, grads)
    g = upstream
    for i in range(len(layers) - 1, -1, -1):
        x, z = caches[i]
        _, _, g = layer_backward(layers[i], x, g, z=z, input_grad=input_grad or i > 0,
                                 out=views[2 * i : 2 * i + 2])
    return grads, g


# ---------------------------------------------------------------------------
# Forward-over-reverse helpers used by the second-order meta-gradient path.
# A "tangent" mirrors the structure of the value it accompanies: chain_tangent
# pushes one through chain_forward's caches, and chain_backward_jvp carries
# it back through the explicit backward pass.


def chain_tangent(layers, caches, dparams, dx=None):
    """The tangent of chain_forward's output along dparams, the chain's flat
    parameter tangent, and dx, the input tangent (None for zero, whose
    products are skipped), read off chain_forward's caches. Returns (output
    tangent, each layer's input tangent) for chain_backward_jvp. A relu
    layer masks by its output, positive exactly where its pre-activation is."""
    views = param_views(layers, dparams)
    dxs = []
    for layer, (x, out), dW, db in zip(layers, caches, views[::2], views[1::2]):
        dxs.append(dx)
        dx = x @ dW.T + db if dx is None else dx @ layer.weights.T + x @ dW.T + db
        if layer.activation == "relu":
            dx *= out > 0.0
    return dx, dxs


def layer_backward_jvp(layer, dW, x, dx, upstream, dupstream, z, input_grad: bool = True,
                       out=(None, None)):
    """Tangents of layer_backward's gradients, plus the input gradient.

    Returns ((dgW, dgb), gx, dgx): the weight and bias gradient tangents
    (written into `out`'s arrays if given; the values are not computed),
    the input gradient and its tangent, None with input_grad False. `z`
    is the layer's output, as in layer_backward, and dx None is a zero
    input tangent. The relu mask is treated as locally constant (its
    derivative is zero almost everywhere), so layer_backward of the
    tangent upstream gives every term linear in it; the terms of the
    value upstream against the tangents dx and dW are added here.
    """
    dgW, dgb, dgx = layer_backward(layer, x, dupstream, z=z, input_grad=input_grad, out=out)
    dz = upstream * (z > 0.0) if layer.activation == "relu" else upstream
    if dx is not None:
        dgW += dz.T @ dx
    if not input_grad:
        return (dgW, dgb), None, None
    dgx += dz @ dW
    return (dgW, dgb), dz @ layer.weights, dgx


def softmax_jvp(p: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Directional derivative of row-wise softmax(z) given p = softmax(z)."""
    inner = (p * dz).sum(axis=1, keepdims=True)
    return p * (dz - inner)


def chain_backward_jvp(layers, dparams, caches, dxs, upstream, dupstream, input_grad: bool = True,
                       out=None):
    """Tangents of chain_backward's gradients, from chain_forward's caches
    and chain_tangent's input tangents `dxs`.

    Returns (flat grad tangent vector, written into `out` if given,
    grad_input, grad_input tangent). The value gradients are not
    computed: a Hessian-vector product needs only their tangents. With
    input_grad False the first layer's input gradient and its tangent are
    skipped and come back as None.
    """
    dviews = param_views(layers, dparams)
    dgrads = _grad_buffer(layers) if out is None else out
    views = param_views(layers, dgrads)
    g, dg = upstream, dupstream
    for i in range(len(layers) - 1, -1, -1):
        x, z = caches[i]
        _, g, dg = layer_backward_jvp(layers[i], dviews[2 * i], x, dxs[i], g, dg, z,
                                      input_grad=input_grad or i > 0, out=views[2 * i : 2 * i + 2])
    return dgrads, g, dg
