"""Minimal dense feed-forward network machinery with exact analytic gradients.

Everything here operates on plain float64 numpy arrays.  Layers are
affine maps with ReLU (or tanh) on hidden layers and a linear final
layer.  Inputs are (n, D) batches, one row per instance; a lone 1-d
vector is rejected with ShapeError.  A model's parameters are one flat
vector holding, per layer, the weight in row-major order and then the
bias.  layer_views is the one place that knows this layout: every
reader and writer of a layer goes through its views.  A central
finite-difference estimator is provided as an independent oracle for
the analytic backward pass.
"""

from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Raised when an input dimension does not match a layer dimension."""


class Layer(NamedTuple):
    """One affine layer: weight is (..., out_dim, in_dim), bias is (..., out_dim)."""

    weight: np.ndarray
    bias: np.ndarray


def affine_forward(layer, x):
    """x @ weight.T + bias for an (n, in_dim) batch x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected an (n, D) batch, got {x.ndim}-d")
    in_dim = layer.weight.shape[1]
    if x.shape[1] != in_dim:
        raise ShapeError(f"input has {x.shape[1]} features but layer expects {in_dim}")
    out = np.matmul(x, layer.weight.T)
    out += layer.bias
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
    # the numerator where(z >= 0, 1, e) without a mask: z >= 0 is 1 for
    # z >= 0 (-0.0 included) and 0 below, and 0 <= e <= 1, so the maximum
    # of the two is 1 or e; a NaN z gives a NaN e, which the maximum keeps
    np.greater_equal(z, 0.0, out=out)
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
    Returns ([(dweight, dbias) per layer], input_grad).  No caller in the
    package: training backpropagates through scorer.AutoencoderStack.  It
    stays because perfbench/tracing.py wraps it by name and the tests'
    2-d reference gradient uses it.
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
    """Glorot-uniform weights and zero biases as one flat vector, drawn layer by
    layer; deterministic for a given seed."""
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least two layer dims, got {dims}")
    rng = np.random.default_rng(rng_seed)
    theta = np.zeros(param_count(dims))
    for weight, _ in layer_views(theta, dims):
        fan_out, fan_in = weight.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weight[...] = rng.uniform(-bound, bound, size=weight.shape)
    return theta


def param_count(dims):
    """Length of the parameter vector of the layer chain dims."""
    return sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))


def layer_views(theta, dims):
    """[Layer(weight (..., out, in), bias (..., out)) per layer] as views into
    a (..., P) array, each row one model's parameter vector."""
    needed = param_count(dims)
    if theta.shape[-1] != needed:
        raise ShapeError(f"vector has {theta.shape[-1]} entries but dims need {needed}")
    lead = theta.shape[:-1]
    views, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weight = theta[..., pos:pos + fan_out * fan_in].reshape(lead + (fan_out, fan_in))
        pos += fan_out * fan_in
        views.append(Layer(weight, theta[..., pos:pos + fan_out]))
        pos += fan_out
    return views
