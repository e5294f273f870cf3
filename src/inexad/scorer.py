"""Autoencoder anomaly scorer: squared reconstruction error and its gradient.

The encoder maps D -> hidden -> code (ReLU on the hidden layer by
default, linear code layer) and the decoder mirrors it back to D.  The anomaly score of
an instance is the squared euclidean distance between the instance and
its reconstruction; higher means more anomalous.
"""

from dataclasses import dataclass

import numpy as np

from .network import (
    ShapeError,
    init_params,
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


@dataclass
class ScoreWithGrad:
    score: float
    grad: AutoencoderParams  # gradient arrays arranged like the parameters


def ae_init(input_dim, rng_seed, hidden=DEFAULT_HIDDEN, code=DEFAULT_CODE,
            activation="relu"):
    """Fresh autoencoder D -> hidden -> code -> hidden -> D."""
    enc = init_params([input_dim, hidden, code], rng_seed)
    dec = init_params([code, hidden, input_dim], rng_seed + 1)
    return AutoencoderParams(encoder=enc, decoder=dec, activation=activation)


def ae_to_vector(params):
    return np.concatenate(
        [layers_to_vector(params.encoder), layers_to_vector(params.decoder)]
    )


def ae_from_vector(vec, dims, activation="relu"):
    """Rebuild AutoencoderParams from a flat vector and full dimension chain."""
    vec = np.asarray(vec, dtype=np.float64)
    n_enc = (len(dims) - 1) // 2
    enc_dims = dims[: n_enc + 1]
    dec_dims = dims[n_enc:]
    n_enc_params = sum(
        o * i + o for i, o in zip(enc_dims[:-1], enc_dims[1:])
    )
    enc = vector_to_layers(vec[:n_enc_params], enc_dims)
    dec = vector_to_layers(vec[n_enc_params:], dec_dims)
    return AutoencoderParams(encoder=enc, decoder=dec, activation=activation)


class Workspace:
    """Caller-owned arrays for repeated scoring and gradient passes of one model.

    Every row buffer has `rows` rows; a pass over n <= rows instances
    writes into the leading n rows, so no pass allocates an array of
    instances by layer width.  Gradients go into the flat vector `grad`
    through per-layer views, in ae_to_vector order.
    """

    def __init__(self, params, rows):
        self.x = np.empty((rows, params.input_dim))  # stacked input rows
        self.encoder = [np.empty((rows, l.out_dim)) for l in params.encoder]
        self.decoder = [np.empty((rows, l.out_dim)) for l in params.decoder]
        self.encoder_in = [np.empty((rows, l.in_dim)) for l in params.encoder]
        self.decoder_in = [np.empty((rows, l.in_dim)) for l in params.decoder]
        self.grad = np.empty(params.size)
        self.encoder_grads, self.decoder_grads = _grad_views(self.grad, params)


def _grad_views(vec, params):
    """Per-layer (dweight, dbias) views into a flat gradient, for each half."""
    views = ae_from_vector(vec, params.dims)
    return ([(l.weight, l.bias) for l in views.encoder],
            [(l.weight, l.bias) for l in views.decoder])


def reconstruct(params, X, workspace=None):
    """Decoder(encoder(x)) for a vector or a batch, with caches.

    With a Workspace the layer outputs go into its buffers.
    """
    enc_out, dec_out = ((None, None) if workspace is None
                        else (workspace.encoder, workspace.decoder))
    code, enc_cache = mlp_forward(params.encoder, X, activation=params.activation,
                                  out=enc_out)
    recon, dec_cache = mlp_forward(params.decoder, code, activation=params.activation,
                                   out=dec_out)
    return recon, enc_cache, dec_cache


def score(params, x):
    """Squared reconstruction error of a single instance."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a single instance vector, got {x.ndim}-d")
    recon, _, _ = reconstruct(params, x)
    diff = x - recon
    return float(diff @ diff)


def score_forward(params, X, workspace=None):
    """Scores of an (n, D) batch plus the tape score_backward consumes.

    With a workspace the tape lives in its buffers, so it is valid only
    until the workspace's next pass.
    """
    recon, enc_cache, dec_cache = reconstruct(params, X, workspace)
    diff = np.subtract(X, recon, out=recon)
    scores = np.einsum("ij,ij->i", diff, diff)
    return scores, (diff, enc_cache, dec_cache)


def score_backward(params, tape, upstream, workspace=None):
    """sum_i upstream_i * d a(x_i)/d theta for a score_forward tape.

    Returns the gradient flattened in ae_to_vector order: a new vector,
    or workspace.grad.  Consumes the tape.
    """
    diff, enc_cache, dec_cache = tape
    g_recon = np.multiply(-2.0, diff, out=diff)
    g_recon *= upstream[:, None]
    if workspace is None:
        grad = np.empty(params.size)
        enc_grads, dec_grads = _grad_views(grad, params)
        enc_in = dec_in = None
    else:
        grad = workspace.grad
        enc_grads, dec_grads = workspace.encoder_grads, workspace.decoder_grads
        enc_in, dec_in = workspace.encoder_in, workspace.decoder_in
    _, g_code = mlp_backward(params.decoder, dec_cache, g_recon,
                             activation=params.activation, grads=dec_grads,
                             out=dec_in)
    mlp_backward(params.encoder, enc_cache, g_code, activation=params.activation,
                 grads=enc_grads, out=enc_in)
    return grad


def score_batch(params, X, workspace=None):
    """Scores for a batch of instances; order preserving."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        return np.zeros(0)
    if X.ndim != 2:
        raise ShapeError(f"expected an (n, D) batch, got {X.ndim}-d")
    return score_forward(params, X, workspace)[0]


def score_batch_grad(params, X, upstream):
    """Scores and the summed parameter gradient sum_i upstream_i * d a(x_i)/d theta.

    Returns (scores, grad_vector) with the gradient flattened in
    ae_to_vector order.
    """
    X = np.asarray(X, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    scores, tape = score_forward(params, X)
    return scores, score_backward(params, tape, upstream)


def score_grad(params, x, upstream):
    """Score of one instance plus upstream * d a(x)/d theta, parameter shaped."""
    upstream = float(upstream)
    if not np.isfinite(upstream):
        raise ValueError(f"upstream must be finite, got {upstream}")
    x = np.asarray(x, dtype=np.float64)
    scores, grad_vec = score_batch_grad(params, x[None, :], np.array([upstream]))
    grad = ae_from_vector(grad_vec, params.dims, activation=params.activation)
    return ScoreWithGrad(score=float(scores[0]), grad=grad)


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
