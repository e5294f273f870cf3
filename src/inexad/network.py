"""Minimal dense feed-forward network machinery with exact analytic gradients.

Everything here operates on plain float64 numpy arrays.  Layers are
affine maps with ReLU (or tanh) on hidden layers.  forward_pass and
backward_pass are the package's only layer loops, on one model's 2-d
weights or a stack's (L, out, in) weights; mlp_forward and
mlp_backward adapt them to a chain with a linear last layer on an
(n, D) batch, rejecting a lone 1-d vector with ShapeError.  A model's
parameters are one flat vector holding, per layer, the weight in
row-major order and then the bias.  layer_views is the one place that
knows this layout.  A central finite-difference estimator is provided
as an independent oracle for the analytic backward pass.
"""

from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Raised when an input dimension does not match a layer dimension."""


class Layer(NamedTuple):
    """One affine layer: weight is (..., out_dim, in_dim), bias is (..., out_dim)."""

    weight: np.ndarray
    bias: np.ndarray


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


def forward_pass(layers, x, activation, hidden, outs=None):
    """The list of outputs of affine layers run on x, layer i's activated
    in place when hidden[i] is true, each in outs[i] or a new array.

    Weights are (..., out, in) and biases (..., out); x is (..., n, in)
    and broadcasts as in np.matmul, so a stack of models can share x.
    """
    h, result = x, []
    for i, (weight, bias) in enumerate(layers):
        h = np.matmul(h, weight.mT, out=None if outs is None else outs[i])
        h += bias[..., None, :]
        if hidden[i]:
            _activate(h, activation, out=h)
        result.append(h)
    return result


def backward_pass(layers, tape, g, activation, hidden, grads, spare=None):
    """Backpropagate g, the loss gradient at the last output, through a
    forward_pass whose input and outputs are tape[0] and tape[1:].

    Writes each layer's weight and bias gradients, summed over the rows,
    into grads[i].  Without spare it changes no tape entry and returns
    the input's gradient.  With spare, a flat buffer of one layer
    output's size, it consumes the tape instead (a hidden output becomes
    its activation's derivative and the gradient through it goes to
    spare; a linear output becomes the gradient through it) and returns
    None, skipping the input's gradient, which has no buffer.
    """
    for i in range(len(layers) - 1, -1, -1):
        h = tape[i]
        dweight, dbias = grads[i]
        np.matmul(g.mT, h, out=dweight)
        np.sum(g, axis=-2, out=dbias)
        if spare is None:
            g = np.matmul(g, layers[i].weight)
            if i > 0 and hidden[i - 1]:
                g *= _activation_grad(h, activation)
        elif i == 0:
            return None
        elif hidden[i - 1]:
            g = np.matmul(g, layers[i].weight, out=spare[:h.size].reshape(h.shape))
            g *= _activation_grad(h, activation, out=h)
        else:
            g = np.matmul(g, layers[i].weight, out=h)
    return g


def squared_error(x, recon, out=None):
    """Row sums of (x - recon) ** 2 over the last axis; recon becomes the difference."""
    diff = np.subtract(x, recon, out=recon)
    return np.einsum("...ij,...ij->...i", diff, diff, out=out)


def check_batch(x, width):
    """x as a float64 array; ShapeError unless it is an (n, width) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected an (n, D) batch, got {x.ndim}-d")
    if x.shape[1] != width:
        raise ShapeError(f"batch has {x.shape[1]} features but the first layer expects {width}")
    return x


def mlp_forward(layers, x, activation="relu", cache=True):
    """forward_pass of a chain with a linear last layer on an (n, D) batch.

    Returns (output, tape): with cache=True the tape is [x, output of
    layer 0, ..., output], which mlp_backward reads, else None.
    """
    x = check_batch(x, layers[0].weight.shape[1])
    outs = forward_pass(layers, x, activation, [True] * (len(layers) - 1) + [False])
    return outs[-1], [x] + outs if cache else None


def mlp_backward(layers, tape, output_grad, activation="relu"):
    """backward_pass through the tape of an mlp_forward pass.

    output_grad is dLoss/dOutput, shaped like the (n, out) output.
    Returns ([(dweight, dbias) per layer], input_grad), all new arrays.
    No caller in the package; perfbench/tracing.py wraps it by name.
    """
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != tape[-1].shape:
        raise ShapeError(f"output_grad shape {g.shape} does not match the output "
                         f"{tape[-1].shape}")
    grads = [Layer(np.empty(weight.shape), np.empty(bias.shape)) for weight, bias in layers]
    hidden = [True] * (len(layers) - 1) + [False]
    return grads, backward_pass(layers, tape, g, activation, hidden, grads)


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
