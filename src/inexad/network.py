"""Minimal dense feed-forward network machinery with exact analytic gradients.

Everything here operates on plain float64 numpy arrays.  Layers are
affine maps with ReLU (or tanh) on hidden layers and a linear final
layer.  Inputs are (n, D) batches, one row per instance; a lone 1-d
vector is rejected with ShapeError.  A flat parameter vector holds, per
layer, the weight in row-major order and then the bias; layers_to_vector
writes this layout and layer_views is the one place that reads it.
A central finite-difference estimator is provided as an independent
oracle for the analytic backward pass.
"""

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when an input dimension does not match a layer dimension."""


@dataclass
class LayerParams:
    """One affine layer: weight is (out_dim, in_dim), bias is (out_dim,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError(
                f"weight must be 2-d and bias 1-d, got {self.weight.ndim}-d "
                f"and {self.bias.ndim}-d"
            )
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"weight has {self.weight.shape[0]} output rows but bias has "
                f"{self.bias.shape[0]} entries"
            )

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]


def affine_forward(params, x):
    """x @ weight.T + bias for an (n, in_dim) batch x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected an (n, D) batch, got {x.ndim}-d")
    if x.shape[1] != params.in_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features but layer expects {params.in_dim}"
        )
    out = np.matmul(x, params.weight.T)
    out += params.bias
    return out


# Smallest positive subnormal / largest double below 1; sigmoid output is
# clamped into this open interval so extreme inputs never return 0 or 1.
_SIGMOID_LO = 5e-324
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid_stable(z):
    """Numerically stable logistic function, elementwise.

    Never overflows; output is clamped into the open interval (0, 1).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0:
        return float(_sigmoid_into(z[None], np.empty(1), np.empty(1))[0])
    return _sigmoid_into(z, np.empty(z.shape), np.empty(z.shape))


def _sigmoid_into(z, out, scratch):
    """sigmoid_stable of z into out (which may be z), with scratch shaped like z.

    Both branches share e = exp(-|z|): the result is 1 / (1 + e) where
    z >= 0 and e / (1 + e) elsewhere.  exp runs over the whole array, so
    no element's bits depend on which others share its sign.
    """
    e = np.abs(z, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # the numerator where(z >= 0, 1, e) without a mask: heaviside gives 1
    # for z >= 0 (-0.0 included) and 0 below, and 0 <= e <= 1, so the
    # maximum of the two is 1 or e
    np.heaviside(z, 1.0, out=out)
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)


ACTIVATIONS = ("relu", "tanh")


def _activate(z, activation, out=None):
    if activation == "relu":
        return np.maximum(0.0, z, out=out)
    if activation == "tanh":
        return np.tanh(z, out=out)
    raise ValueError(f"unknown activation {activation!r}")


def _activation_grad(act, activation, out=None):
    """Derivative of the hidden activation, computed from its output."""
    if activation == "relu":
        return np.greater(act, 0.0, out=out)
    return np.subtract(1.0, np.square(act, out=out), out=out)


def mlp_forward(layers, x, activation="relu", cache=True):
    """Run affine+activation layers (linear final layer) on an (n, D) batch.

    Returns (output, tape).  Each layer's output takes its activation in
    place.  With cache=True the tape is the list [x, output of layer 0,
    ..., output of the last layer], so tape[i] is the input of layer i;
    mlp_backward reads it.  With cache=False the tape is None and each
    layer output is dropped once the next layer has read it, so at most
    two are alive at a time.
    """
    h = np.asarray(x, dtype=np.float64)
    tape = [h] if cache else None
    for i, layer in enumerate(layers):
        h = affine_forward(layer, h)
        if i < len(layers) - 1:
            _activate(h, activation, out=h)
        if cache:
            tape.append(h)
    return h, tape


def mlp_backward(layers, tape, output_grad, activation="relu"):
    """Backpropagate through the tape of an mlp_forward pass.

    output_grad is dLoss/dOutput, shaped like the (n, out) forward output.
    Returns ([(dweight, dbias) per layer], input_grad).
    """
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != tape[-1].shape:
        raise ShapeError(
            f"output_grad shape {g.shape} does not match the output {tape[-1].shape}"
        )
    param_grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        param_grads[i] = (np.matmul(g.T, tape[i]), np.sum(g, axis=0))
        g = np.matmul(g, layers[i].weight)
        if i > 0:
            g *= _activation_grad(tape[i], activation)
    return param_grads, g


def finite_diff_grad(loss_fn, params, step=1e-5):
    """Central-difference gradient of a scalar loss over a flat parameter vector."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    theta = np.atleast_1d(np.asarray(params, dtype=np.float64)).copy()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        up = loss_fn(theta)
        theta[i] = orig - step
        down = loss_fn(theta)
        theta[i] = orig
        grad[i] = (up - down) / (2.0 * step)
    return grad


def init_params(layer_dims, rng_seed):
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least two layer dims, got {dims}")
    rng = np.random.default_rng(rng_seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(LayerParams(weight=w, bias=np.zeros(fan_out)))
    return layers


def layers_to_vector(layers):
    """Flatten a layer list to one float64 vector (weights then bias, per layer)."""
    parts = []
    for layer in layers:
        parts.append(layer.weight.ravel())
        parts.append(layer.bias)
    return np.concatenate(parts)


def layer_views(theta, dims):
    """[(weight (..., out, in), bias (..., out)) per layer] as views into a
    (..., P) array whose rows are laid out like layers_to_vector."""
    needed = sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))
    if theta.shape[-1] != needed:
        raise ShapeError(f"vector has {theta.shape[-1]} entries but dims need {needed}")
    lead = theta.shape[:-1]
    views, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weight = theta[..., pos:pos + fan_out * fan_in].reshape(lead + (fan_out, fan_in))
        pos += fan_out * fan_in
        views.append((weight, theta[..., pos:pos + fan_out]))
        pos += fan_out
    return views


def vector_to_layers(vec, layer_dims):
    """Inverse of layers_to_vector for the given dimension chain; the layers
    are views into vec."""
    vec = np.asarray(vec, dtype=np.float64)
    return [LayerParams(weight=w, bias=b) for w, b in layer_views(vec, list(layer_dims))]
