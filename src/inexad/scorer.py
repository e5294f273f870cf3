"""Autoencoder anomaly scorer: squared reconstruction error and its gradient.

The encoder maps D -> hidden -> code (ReLU on the hidden layer by
default, linear code layer) and the decoder mirrors it back to D.  The anomaly score of
an instance is the squared euclidean distance between the instance and
its reconstruction; higher means more anomalous.

AutoencoderStack holds several models of one architecture and runs them
together on shared input rows, which is how training advances the
members of a lambda grid in lockstep.  Its backward pass is the
package's only one: training.objective_grad runs it on a one-model
stack.  score_batch scores through network.mlp_forward, which gives
the same bits.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .network import (
    ACTIVATIONS,
    ShapeError,
    _activate,
    _activation_grad,
    init_params,
    layer_views,
    mlp_forward,
)

DEFAULT_HIDDEN = 128
DEFAULT_CODE = 16


@dataclass
class AutoencoderParams:
    """An autoencoder as its dimension chain, one flat parameter vector and
    the hidden-layer activation of both halves.

    dims runs input -> ... -> code -> ... -> input.  encoder and decoder
    are the two halves of network.layer_views(theta, dims): views, so an
    in-place edit of a layer changes theta.
    """

    dims: list
    theta: np.ndarray
    activation: str = "relu"
    encoder: list = field(init=False, repr=False)
    decoder: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of "
                f"{ACTIVATIONS}"
            )
        dims = list(self.dims) if np.ndim(self.dims) == 1 else []
        if (len(dims) < 3 or len(dims) % 2 == 0 or dims[0] != dims[-1]
                or not all(isinstance(d, numbers.Integral) and d >= 1 for d in dims)):
            raise ShapeError(
                "dims must be an odd number (at least 3) of positive integers "
                f"that starts and ends at the input width, got {self.dims!r}"
            )
        self.dims = [int(d) for d in dims]
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 1:
            raise ShapeError(f"theta must be 1-d, got {self.theta.ndim}-d")
        layers = layer_views(self.theta, self.dims)
        half = len(layers) // 2
        self.encoder, self.decoder = layers[:half], layers[half:]

    def __reduce__(self):
        # pickle theta alone: copies of the views would no longer share its memory
        return AutoencoderParams, (self.dims, self.theta, self.activation)

    @property
    def input_dim(self):
        return self.dims[0]


def ae_init(input_dim, rng_seed, hidden=DEFAULT_HIDDEN, code=DEFAULT_CODE,
            activation="relu"):
    """Fresh autoencoder D -> hidden -> code -> hidden -> D: the encoder drawn
    from rng_seed, the decoder from rng_seed + 1."""
    theta = np.concatenate([init_params([input_dim, hidden, code], rng_seed),
                            init_params([code, hidden, input_dim], rng_seed + 1)])
    return AutoencoderParams([input_dim, hidden, code, hidden, input_dim], theta,
                             activation=activation)


def ae_from_vector(vec, dims, activation="relu"):
    """AutoencoderParams over a flat vector and full dimension chain; the
    layers are views into vec."""
    return AutoencoderParams(dims, vec, activation=activation)


def reconstruct(params, X):
    """Decoder(encoder(X)) for an (n, D) batch, with both halves' tapes.

    No caller in the package: it stays because perfbench/tracing.py wraps
    it by name, and the tests' 2-d reference gradient builds on it.
    """
    code, enc_tape = mlp_forward(params.encoder, X, activation=params.activation)
    recon, dec_tape = mlp_forward(params.decoder, code, activation=params.activation)
    return recon, enc_tape, dec_tape


def check_batch(params, X):
    """X as a float64 array; ShapeError unless it is an (n, D) batch of the model's width."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected an (n, D) batch, got {X.ndim}-d")
    if X.shape[1] != params.input_dim:
        raise ShapeError(
            f"batch has {X.shape[1]} features but the model expects "
            f"{params.input_dim}"
        )
    return X


def score_batch(params, X):
    """Scores for a batch of instances; order preserving.

    Forward only: no layer output outlives the layer that reads it, and
    the reconstruction is overwritten by the error.
    """
    X = check_batch(params, X)
    code, _ = mlp_forward(params.encoder, X, activation=params.activation,
                          cache=False)
    recon, _ = mlp_forward(params.decoder, code, activation=params.activation,
                           cache=False)
    diff = np.subtract(X, recon, out=recon)
    return np.einsum("ij,ij->i", diff, diff)


def carve(pool, *shapes):
    """Consecutive C-contiguous arrays of the given shapes, cut from the front of a flat pool."""
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(pool[pos:pos + size].reshape(shape))
        pos += size
    return views


class AutoencoderStack:
    """L autoencoders of one architecture, stacked as the rows of (L, P) arrays.

    theta holds one model's parameter vector per row,
    and grad their gradients; each layer's weights are (L, out, in) views
    into them.  A pass runs the leading `a` models on one shared (n, D)
    batch with batched matmuls, which give each model the bits of the
    2-d call.  Layer outputs are carved from one flat pool for each pass,
    so a pass allocates nothing of the batch's size.  The stacked weights
    never go through network.mlp_forward/mlp_backward, whose callers
    expect 2-d weights.
    """

    def __init__(self, params, count, pool_size):
        self.dims = params.dims
        self.activation = params.activation
        self.theta = np.tile(params.theta, (count, 1))
        self.layers = layer_views(self.theta, self.dims)
        half = len(self.layers) // 2
        self.hidden = [i % half != half - 1 for i in range(len(self.layers))]
        self.pool = np.empty(pool_size)
        self.tape = []

    @functools.cached_property
    def grad(self):
        """The (L, P) gradients, allocated on first use: a stack that only
        scores never holds one."""
        return np.empty_like(self.theta)

    @functools.cached_property
    def grads(self):
        return layer_views(self.grad, self.dims)

    @staticmethod
    def pool_size(dims, count, score_rows=0, step_rows=0, step_spare=0):
        """Pool entries for scores() over score_rows rows, and for forward()
        and backward() over step_rows rows with step_spare entries of
        spare() in use between them."""
        widths = dims[1:]
        return max(count * score_rows * (max(widths[0::2]) + max(widths[1::2])),
                   count * step_rows * sum(widths)
                   + max(count * step_rows * max(widths), step_spare))

    def _layer(self, i, h, a, out):
        weight, bias = self.layers[i]
        np.matmul(h, weight[:a].transpose(0, 2, 1), out=out)
        out += bias[:a, None, :]
        if self.hidden[i]:
            _activate(out, self.activation, out=out)
        return out

    @staticmethod
    def _squared_error(X, recon, out):
        diff = np.subtract(X, recon, out=recon)
        return np.einsum("lij,lij->li", diff, diff, out=out)

    def scores(self, a, X, out):
        """Scores of the leading a models on the rows X, into out (a, n).

        Forward only: layer outputs alternate between two pool buffers.
        """
        n = len(X)
        widths = self.dims[1:]
        second = a * n * max(widths[0::2])
        h = X
        for i, width in enumerate(widths):
            start = 0 if i % 2 == 0 else second
            h = self._layer(i, h, a,
                            self.pool[start:start + a * n * width].reshape(a, n, width))
        return self._squared_error(X, h, out)

    def forward(self, a, X, out):
        """Scores like scores(), keeping every layer output for backward()."""
        self.tape = carve(self.pool, *[(a, len(X), w) for w in self.dims[1:]])
        h = X
        for i, buf in enumerate(self.tape):
            h = self._layer(i, h, a, buf)
        return self._squared_error(X, h, out)

    def spare(self):
        """The pool beyond the tape, free until backward() runs."""
        return self.pool[sum(buf.size for buf in self.tape):]

    def backward(self, a, X, upstream):
        """grad[:a] = sum_i upstream[:, i] * d score(x_i) / d theta; consumes the tape."""
        tape, spare = self.tape, self.spare()
        g = np.multiply(-2.0, tape[-1], out=tape[-1])
        g *= upstream[:, :, None]
        for i in range(len(tape) - 1, -1, -1):
            a_prev = X if i == 0 else tape[i - 1]
            dweight, dbias = self.grads[i]
            np.matmul(g.transpose(0, 2, 1), a_prev, out=dweight[:a])
            np.sum(g, axis=1, out=dbias[:a])
            if i == 0:
                break  # the gradient at the input rows is never used
            weight = self.layers[i][0][:a]
            if self.hidden[i - 1]:
                g = np.matmul(g, weight, out=spare[:a_prev.size].reshape(a_prev.shape))
                g *= _activation_grad(a_prev, self.activation, out=a_prev)
            else:
                # a linear layer's output is not read again: reuse its buffer
                g = np.matmul(g, weight, out=a_prev)
        self.tape = []


def save_params(path, params, rng_seed=-1):
    """Write parameters to an .npz with a dims/seed header; bit-exact round trip."""
    np.savez(
        path,
        dims=np.asarray(params.dims, dtype=np.int64),
        seed=np.int64(rng_seed),
        activation=np.str_(params.activation),
        theta=params.theta,
    )


def load_params(path):
    """Read parameters written by save_params; returns (params, seed)."""
    with np.load(path) as f:
        seed = int(f["seed"])
        params = ae_from_vector(f["theta"].copy(), f["dims"], activation=str(f["activation"]))
    return params, seed
