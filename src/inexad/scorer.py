"""Autoencoder anomaly scorer: squared reconstruction error and its gradient.

The encoder maps D -> hidden -> code (ReLU on the hidden layer by
default, linear code layer) and the decoder mirrors it back to D.  The anomaly score of
an instance is the squared euclidean distance between the instance and
its reconstruction; higher means more anomalous.

AutoencoderStack holds several models of one architecture and runs them
together on shared input rows, which is how training advances the
members of a lambda grid in lockstep; training.objective_grad runs it
on a one-model stack.  score_batch scores one model through
network.mlp_forward, keeping each half's output and dropping its tape
at once.  Every pass here is network.forward_pass or backward_pass,
and every score network.squared_error, so a one-model stack and
score_batch give the same bits.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .network import (
    ACTIVATIONS,
    Layer,
    ShapeError,
    backward_pass,
    check_batch,
    choice,
    forward_pass,
    init_params,
    integer,
    layer_views,
    mlp_forward,
    sequence,
    squared_error,
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
        choice("activation", self.activation, ACTIVATIONS)
        self.dims = [integer(f"dims[{i}]", d, 1, ShapeError)
                     for i, d in enumerate(sequence("dims", self.dims, ShapeError))]
        if len(self.dims) < 3 or len(self.dims) % 2 == 0 or self.dims[0] != self.dims[-1]:
            raise ShapeError("dims must be an odd number (at least 3) of widths that "
                             f"starts and ends at the input width, got {self.dims}")
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
    input_dim = integer("input_dim", input_dim, 1, ShapeError)
    hidden = integer("hidden", hidden, 1, ShapeError)
    code = integer("code", code, 1, ShapeError)
    rng_seed = integer("rng_seed", rng_seed, 0)
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

    No caller in the package; perfbench/tracing.py wraps it by name."""
    code, enc_tape = mlp_forward(params.encoder, X, activation=params.activation)
    recon, dec_tape = mlp_forward(params.decoder, code, activation=params.activation)
    return recon, enc_tape, dec_tape


def score_batch(params, X):
    """Scores for a batch of instances; order preserving.  Forward only:
    each half's tape is dropped at once, and the reconstruction becomes the error."""
    X = check_batch(X, params.input_dim)
    code = mlp_forward(params.encoder, X, activation=params.activation)[0]
    recon = mlp_forward(params.decoder, code, activation=params.activation)[0]
    return squared_error(X, recon)


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
    batch through network.forward_pass and backward_pass, whose batched
    matmuls give each model the bits of the 2-d call.  Layer outputs
    and spare() scratch are carved from one flat pool, which starts
    empty and grows to the largest pass run so far, so a pass no larger
    than an earlier one allocates nothing of the batch's size.
    """

    def __init__(self, params, count):
        self.dims = params.dims
        self.activation = params.activation
        self.theta = np.tile(params.theta, (count, 1))
        self.layers = layer_views(self.theta, self.dims)
        half = len(self.layers) // 2
        self.hidden = [i % half != half - 1 for i in range(len(self.layers))]
        self.pool = np.empty(0)
        self.tape = []

    @functools.cached_property
    def grad(self):
        """The (L, P) gradients, allocated on first use: a stack that only
        scores never holds one."""
        return np.empty_like(self.theta)

    @functools.cached_property
    def grads(self):
        return layer_views(self.grad, self.dims)

    def _grow(self, size):
        """The pool, regrown to at least size entries.  The outgrown pool is
        dropped first: freed before the new one is allocated, unless a view holds it."""
        if size > self.pool.size:
            self.pool = None
            self.pool = np.empty(size)
        return self.pool

    def _run(self, a, X, bufs, out):
        """Scores of the leading a models on the rows X into out (a, n), with
        layer i's output in bufs[i]."""
        outs = forward_pass(self._leading(self.layers, a), X, self.activation, self.hidden, bufs)
        squared_error(X, outs[-1], out)
        return outs

    def scores(self, a, X, out):
        """Scores of the leading a models on the rows X, into out (a, n).

        Forward only: layer outputs alternate between two pool buffers.
        """
        n, widths = len(X), self.dims[1:]
        second = a * n * max(widths[0::2])
        pool = self._grow(second + a * n * max(widths[1::2]))
        self._run(a, X, [pool[second * (i % 2):][:a * n * w].reshape(a, n, w)
                         for i, w in enumerate(widths)], out)
        return out

    def forward(self, a, X, out):
        """Scores like scores(), keeping every layer output for backward(), whose
        scratch the pool makes room for too: it need not regrow under the tape."""
        shapes = [(a, len(X), w) for w in self.dims[1:]]
        sizes = [math.prod(shape) for shape in shapes]
        self.tape = self._run(a, X, carve(self._grow(sum(sizes) + max(sizes)), *shapes), out)
        return out

    def spare(self, size):
        """size entries of the pool beyond the tape, free until the next pass."""
        used = sum(buf.size for buf in self.tape)
        return self._grow(used + size)[used:used + size]

    def backward(self, a, X, upstream):
        """grad[:a] = sum_i upstream[:, i] * d score(x_i) / d theta; consumes the tape."""
        g = np.multiply(-2.0, self.tape[-1], out=self.tape[-1])
        g *= upstream[:, :, None]
        backward_pass(self._leading(self.layers, a), [X] + self.tape, g, self.activation,
                      self.hidden, self._leading(self.grads, a),
                      spare=self.spare(max(buf.size for buf in self.tape)))
        self.tape = []

    def _leading(self, layers, a):
        """The leading a models' views of stacked layers (layers itself when a is all)."""
        if a == len(self.theta):
            return layers
        return [Layer(weight[:a], bias[:a]) for weight, bias in layers]


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
