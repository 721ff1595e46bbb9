"""Minimal dense numerical substrate: layers, losses, AdamW.

Everything operates on plain numpy arrays in float64. Gradients are
written out explicitly per operation so each one can be checked against
central finite differences in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "relu")


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent."""


def _as_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
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
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
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

    def clone(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy(), self.activation)


def init_dense(in_dim: int, out_dim: int, activation: str, rng: np.random.Generator) -> DenseLayer:
    """Glorot-uniform weights, zero bias."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(w, np.zeros(out_dim), activation)


def _preactivation(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    x = _as_matrix(x, "x")
    if x.shape[1] != layer.in_dim:
        raise ShapeError(f"input dim {x.shape[1]} != layer in dim {layer.in_dim}")
    return x @ layer.weights.T + layer.bias


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def layer_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    return _activate(_preactivation(layer, x), layer.activation)


def layer_backward(layer: DenseLayer, x: np.ndarray, upstream: np.ndarray, z: np.ndarray | None = None,
                   input_grad: bool = True):
    """Gradients of layer_forward.

    Returns (grad_weights, grad_bias, grad_input). `z` may carry the
    cached pre-activation from the forward pass; with input_grad False
    the input gradient is not computed and comes back as None.
    """
    x = _as_matrix(x, "x")
    upstream = _as_matrix(upstream, "upstream")
    if upstream.shape != (x.shape[0], layer.out_dim):
        raise ShapeError(
            f"upstream shape {upstream.shape} != ({x.shape[0]}, {layer.out_dim})"
        )
    if layer.activation == "relu":
        if z is None:
            z = _preactivation(layer, x)
        dz = upstream * (z > 0.0)
    else:
        dz = upstream
    return dz.T @ x, dz.sum(axis=0), (dz @ layer.weights if input_grad else None)


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
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logsumexp - shifted[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@dataclass
class AdamWState:
    """Decoupled-weight-decay Adam over a flat list of parameter arrays."""

    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adamw_init(params, lr=1e-3, weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamWState:
    return AdamWState(
        lr=lr,
        weight_decay=weight_decay,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adamw_step(state: AdamWState, params, grads):
    """One AdamW update. Mutates `state`, returns new parameter arrays."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("parameter/gradient/state length mismatch")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape or p.shape != state.m[i].shape:
            raise ShapeError(f"parameter {i}: shape mismatch {p.shape} vs {g.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        new_p = p * (1.0 - state.lr * state.weight_decay)
        new_p = new_p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        out.append(new_p)
    return out


def chain_forward(layers, x):
    """Run a layer stack, returning (output, caches) for chain_backward."""
    caches = []
    a = _as_matrix(x, "x")
    for layer in layers:
        z = _preactivation(layer, a)
        caches.append((a, z))
        a = _activate(z, layer.activation)
    return a, caches


def chain_backward(layers, caches, upstream, input_grad: bool = True):
    """Gradients of a layer stack: ([gW0, gb0, gW1, gb1, ...], grad_input).

    With input_grad False the first layer's input gradient is skipped and
    grad_input is None.
    """
    grads = [None] * (2 * len(layers))
    g = upstream
    for i in range(len(layers) - 1, -1, -1):
        x, z = caches[i]
        gw, gb, g = layer_backward(layers[i], x, g, z=z, input_grad=input_grad or i > 0)
        grads[2 * i] = gw
        grads[2 * i + 1] = gb
    return grads, g


def chain_params(layers):
    out = []
    for layer in layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


def set_chain_params(layers, params):
    if len(params) != 2 * len(layers):
        raise ShapeError("parameter list length mismatch")
    for i, layer in enumerate(layers):
        w, b = params[2 * i], params[2 * i + 1]
        if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
            raise ShapeError(f"layer {i}: parameter shape mismatch")
        layer.weights = w
        layer.bias = b


# ---------------------------------------------------------------------------
# Forward-over-reverse helpers used by the second-order meta-gradient path.
# A "tangent" mirrors the structure of the value it accompanies; the pair
# (value, tangent) propagates a directional derivative alongside the value.


def layer_forward_jvp(layer: DenseLayer, dW: np.ndarray, db: np.ndarray, x: np.ndarray, dx: np.ndarray):
    """Forward pass with a parameter/input tangent.

    Returns (a, da, z) where a is the activation, da its tangent and z the
    cached pre-activation.
    """
    z = _preactivation(layer, x)
    dz = dx @ layer.weights.T + x @ dW.T + db
    if layer.activation == "relu":
        mask = z > 0.0
        return np.maximum(z, 0.0), dz * mask, z
    return z, dz, z


def layer_backward_jvp(layer, dW, x, dx, upstream, dupstream, z, input_grad: bool = True):
    """Tangents of layer_backward's gradients, plus the input gradient.

    Returns ((dgW, dgb), gx, dgx): the tangents of the weight and bias
    gradients, the input gradient and its tangent. The value weight and
    bias gradients are not computed. With input_grad False, gx and dgx
    are None. The relu mask is treated as locally constant (its
    derivative is zero almost everywhere).
    """
    if layer.activation == "relu":
        mask = z > 0.0
        dz = upstream * mask
        ddz = dupstream * mask
    else:
        dz = upstream
        ddz = dupstream
    dgW = ddz.T @ x + dz.T @ dx
    dgb = ddz.sum(axis=0)
    if not input_grad:
        return (dgW, dgb), None, None
    return (dgW, dgb), dz @ layer.weights, ddz @ layer.weights + dz @ dW


def softmax_jvp(p: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Directional derivative of row-wise softmax(z) given p = softmax(z)."""
    inner = (p * dz).sum(axis=1, keepdims=True)
    return p * (dz - inner)


def chain_forward_jvp(layers, dparams, x, dx):
    """chain_forward carrying a tangent: dparams is a flat [dW0, db0, ...]
    list and dx the input tangent. Returns (output, output tangent, caches)."""
    caches = []
    a, da = x, dx
    for i, layer in enumerate(layers):
        dW, db = dparams[2 * i], dparams[2 * i + 1]
        a_next, da_next, z = layer_forward_jvp(layer, dW, db, a, da)
        caches.append((a, da, z))
        a, da = a_next, da_next
    return a, da, caches


def chain_backward_jvp(layers, dparams, caches, upstream, dupstream, input_grad: bool = True):
    """Tangents of chain_backward's gradients.

    Returns (grad tangents, grad_input, grad_input tangent), the first a
    flat [dW0, db0, dW1, db1, ...] list. The value gradients are not
    computed: a Hessian-vector product needs only their tangents. With
    input_grad False the first layer's input gradient and its tangent
    are skipped and come back as None.
    """
    dgrads = [None] * (2 * len(layers))
    g, dg = upstream, dupstream
    for i in range(len(layers) - 1, -1, -1):
        x, dx, z = caches[i]
        (dgw, dgb), g, dg = layer_backward_jvp(
            layers[i], dparams[2 * i], x, dx, g, dg, z, input_grad=input_grad or i > 0
        )
        dgrads[2 * i] = dgw
        dgrads[2 * i + 1] = dgb
    return dgrads, g, dg
