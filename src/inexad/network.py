"""Minimal dense feed-forward network machinery with exact analytic gradients.

Everything here operates on plain float64 numpy arrays.  Layers are
affine maps with ReLU (or tanh) on hidden layers.  forward_pass and
backward_pass are the package's only layer loops, on one model's 2-d
weights or a stack's (L, out, in) weights.  mlp_forward and
mlp_backward adapt them to a chain with a linear last layer on an
(n, D) batch, rejecting a lone 1-d vector with ShapeError; backward_pass
consumes its tape, so mlp_backward runs it on a copy.  A model's
parameters are one flat vector holding, per layer, the weight in
row-major order and then the bias.  layer_views is the one place that
knows this layout.  integer, real, choice, sequence and check_path
are the one rule per kind of setting given from outside: a value one
rejects raises a ValueError that names the setting.
"""

import numbers
import os
from collections.abc import Sequence
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


def backward_pass(layers, tape, g, activation, hidden, grads, spare):
    """Backpropagate g, the loss gradient at the last output, through a
    forward_pass whose input and outputs are tape[0] and tape[1:].

    Writes each layer's weight and bias gradients, summed over the rows,
    into grads[i], and returns the gradient at layer 0's output.  It
    consumes the tape: a hidden output becomes its activation's
    derivative and the gradient through it goes to spare, a flat buffer
    of at least that output's size; a linear output becomes the gradient
    through it.  tape[0], tape[-1] and g are left alone.
    """
    for i in range(len(layers) - 1, -1, -1):
        h = tape[i]
        dweight, dbias = grads[i]
        np.matmul(g.mT, h, out=dweight)
        np.sum(g, axis=-2, out=dbias)
        if i == 0:
            return g
        if hidden[i - 1]:
            g = np.matmul(g, layers[i].weight, out=spare[:h.size].reshape(h.shape))
            g *= _activation_grad(h, activation, out=h)
        else:
            g = np.matmul(g, layers[i].weight, out=h)


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


def integer(name, value, low, error=ValueError):
    """value as an int; error naming the setting unless it is a real number, not
    a bool, of integral value and at least low."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if (whole := int(value)) == value and whole >= low:
                return whole
        except (ValueError, OverflowError):  # NaN, +-inf
            pass
    raise error(f"{name} must be an integer >= {low}, got {value!r}")


def real(name, value):
    """value as a float; ValueError naming the setting unless it is a real number,
    not a bool, that a float can hold."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} takes numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {value!r}") from None


def choice(name, value, options):
    """ValueError naming the setting unless value is one of the str options."""
    if not isinstance(value, str) or value not in options:
        raise ValueError(f"unknown {name} {value!r}, expected one of {options}")


def sequence(name, value, error=ValueError):
    """value's entries as a tuple; error naming the setting unless it is a
    1-d array or a sequence other than a str or bytes."""
    if (isinstance(value, np.ndarray) and value.ndim == 1
            or isinstance(value, Sequence) and not isinstance(value, (str, bytes))):
        return tuple(value)
    raise error(f"{name} takes a sequence, got {value!r}")


def check_path(name, value, error=ValueError):
    """value as a str; error naming the setting unless it is a str, bytes or os.PathLike."""
    if not isinstance(value, (str, bytes, os.PathLike)):
        raise error(f"{name} takes a file path, got {value!r}")
    return os.fsdecode(value)


def mlp_forward(layers, x, activation="relu"):
    """forward_pass of a chain with a linear last layer on an (n, D) batch.

    Returns (output, tape), the tape [x, output of layer 0, ..., output]
    that mlp_backward reads.
    """
    x = check_batch(x, layers[0].weight.shape[1])
    outs = forward_pass(layers, x, activation, [True] * (len(layers) - 1) + [False])
    return outs[-1], [x] + outs


def mlp_backward(layers, tape, output_grad, activation="relu"):
    """backward_pass through the tape of an mlp_forward pass, run on a copy
    of its hidden outputs, so the caller's tape is unchanged.

    output_grad is dLoss/dOutput, shaped like the (n, out) output.
    Returns ([(dweight, dbias) per layer], input_grad), all new arrays.
    No caller in the package; perfbench/tracing.py wraps it by name.
    """
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != tape[-1].shape:
        raise ShapeError(f"output_grad shape {g.shape} does not match the output "
                         f"{tape[-1].shape}")
    grads = [Layer(np.empty(weight.shape), np.empty(bias.shape)) for weight, bias in layers]
    hidden_outs = [h.copy() for h in tape[1:-1]]
    spare = np.empty(max((h.size for h in hidden_outs), default=0))
    g = backward_pass(layers, [tape[0]] + hidden_outs + [tape[-1]], g, activation,
                      [True] * len(hidden_outs) + [False], grads, spare)
    return grads, np.matmul(g, layers[0].weight)


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
