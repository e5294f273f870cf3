"""Autoencoder anomaly scorer: squared reconstruction error and its gradient.

The encoder maps D -> hidden -> code (ReLU on the hidden layer by
default, linear code layer) and the decoder mirrors it back to D.  The anomaly score of
an instance is the squared euclidean distance between the instance and
its reconstruction; higher means more anomalous.

AutoencoderStack holds several models of one architecture and runs them
together on shared input rows, which is how training advances the
members of a lambda grid in lockstep.
"""

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    ACTIVATIONS,
    ShapeError,
    _activate,
    _activation_grad,
    init_params,
    layer_views,
    layers_to_vector,
    mlp_backward,
    mlp_forward,
    vector_to_layers,
)

DEFAULT_HIDDEN = 128
DEFAULT_CODE = 16


@dataclass
class AutoencoderParams:
    """All weights and biases of the encoder and decoder."""

    encoder: list  # of LayerParams
    decoder: list  # of LayerParams
    activation: str = "relu"  # hidden-layer activation of both halves

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of "
                f"{ACTIVATIONS}"
            )
        if self.encoder[-1].out_dim != self.decoder[0].in_dim:
            raise ShapeError(
                f"encoder emits {self.encoder[-1].out_dim} features but the "
                f"decoder expects {self.decoder[0].in_dim}"
            )
        if self.decoder[-1].out_dim != self.encoder[0].in_dim:
            raise ShapeError(
                f"decoder emits {self.decoder[-1].out_dim} features but the "
                f"encoder input has {self.encoder[0].in_dim}"
            )

    @property
    def input_dim(self):
        return self.encoder[0].in_dim

    @property
    def size(self):
        """Number of parameters: the length of ae_to_vector(params)."""
        return sum(l.weight.size + l.bias.size
                   for l in self.encoder + self.decoder)

    @property
    def dims(self):
        """Full dimension chain input -> ... -> code -> ... -> input."""
        enc = [l.in_dim for l in self.encoder] + [self.encoder[-1].out_dim]
        dec = [l.out_dim for l in self.decoder]
        return enc + dec


def ae_init(input_dim, rng_seed, hidden=DEFAULT_HIDDEN, code=DEFAULT_CODE,
            activation="relu"):
    """Fresh autoencoder D -> hidden -> code -> hidden -> D."""
    enc = init_params([input_dim, hidden, code], rng_seed)
    dec = init_params([code, hidden, input_dim], rng_seed + 1)
    return AutoencoderParams(encoder=enc, decoder=dec, activation=activation)


def ae_to_vector(params):
    return layers_to_vector(params.encoder + params.decoder)


def ae_from_vector(vec, dims, activation="relu"):
    """Rebuild AutoencoderParams from a flat vector and full dimension chain;
    the layers are views into vec."""
    layers = vector_to_layers(vec, dims)
    n_enc = len(layers) // 2
    return AutoencoderParams(encoder=layers[:n_enc], decoder=layers[n_enc:],
                             activation=activation)


def reconstruct(params, X):
    """Decoder(encoder(X)) for an (n, D) batch, with both halves' tapes."""
    code, enc_tape = mlp_forward(params.encoder, X, activation=params.activation)
    recon, dec_tape = mlp_forward(params.decoder, code, activation=params.activation)
    return recon, enc_tape, dec_tape


def score_forward(params, X):
    """Scores of an (n, D) batch plus the tape score_backward consumes.

    The tape keeps each layer output once, the code shared by both
    halves: 2 * hidden + code + D doubles per row, the last D holding
    the reconstruction error.
    """
    recon, enc_tape, dec_tape = reconstruct(params, X)
    diff = np.subtract(X, recon, out=recon)
    scores = np.einsum("ij,ij->i", diff, diff)
    return scores, (diff, enc_tape, dec_tape)


def score_backward(params, tape, upstream):
    """sum_i upstream_i * d a(x_i)/d theta for a score_forward tape.

    Returns the gradient as a new vector in ae_to_vector order.  Consumes
    the tape.
    """
    diff, enc_tape, dec_tape = tape
    g_recon = np.multiply(-2.0, diff, out=diff)
    g_recon *= upstream[:, None]
    dec_grads, g_code = mlp_backward(params.decoder, dec_tape, g_recon,
                                     activation=params.activation)
    enc_grads, _ = mlp_backward(params.encoder, enc_tape, g_code,
                                activation=params.activation)
    return np.concatenate([p.ravel() for dw, db in enc_grads + dec_grads
                           for p in (dw, db)])


def score_batch(params, X):
    """Scores for a batch of instances; order preserving.

    Forward only: no layer output outlives the layer that reads it, and
    the reconstruction is overwritten by the error.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected an (n, D) batch, got {X.ndim}-d")
    if X.shape[1] != params.input_dim:
        raise ShapeError(
            f"batch has {X.shape[1]} features but the model expects "
            f"{params.input_dim}"
        )
    code, _ = mlp_forward(params.encoder, X, activation=params.activation,
                          cache=False)
    recon, _ = mlp_forward(params.decoder, code, activation=params.activation,
                           cache=False)
    diff = np.subtract(X, recon, out=recon)
    return np.einsum("ij,ij->i", diff, diff)


def score_batch_grad(params, X, upstream):
    """Scores and the summed parameter gradient sum_i upstream_i * d a(x_i)/d theta.

    Returns (scores, grad_vector) with the gradient flattened in
    ae_to_vector order.
    """
    X = np.asarray(X, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    scores, tape = score_forward(params, X)
    return scores, score_backward(params, tape, upstream)


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

    theta holds one model's parameters per row, in ae_to_vector order,
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
        self.theta = np.tile(ae_to_vector(params), (count, 1))
        self.grad = np.empty_like(self.theta)
        self.layers = layer_views(self.theta, self.dims)
        self.grads = layer_views(self.grad, self.dims)
        half = len(self.layers) // 2
        self.hidden = [i % half != half - 1 for i in range(len(self.layers))]
        self.pool = np.empty(pool_size)
        self.tape = []

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
        theta=ae_to_vector(params),
    )


def load_params(path):
    """Read parameters written by save_params; returns (params, seed)."""
    with np.load(path) as f:
        dims = [int(d) for d in f["dims"]]
        seed = int(f["seed"])
        activation = str(f["activation"])
        params = ae_from_vector(f["theta"].copy(), dims, activation=activation)
    return params, seed
